"""`python -m vortexwave`: the command-line driver (`cli.main`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
