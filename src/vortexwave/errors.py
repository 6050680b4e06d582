"""Exception types shared across the package."""


class VortexWaveError(Exception):
    """Base class for all package-specific errors."""


class SingularEvaluation(VortexWaveError):
    """Kernel evaluated inside the singularity exclusion radius."""


class VortexTooClose(VortexWaveError):
    """Interface and a vortex are closer than the admissible floor."""


class DegenerateStrip(VortexWaveError):
    """A layer's thickness is not bounded away from zero."""


class PointOutsideLayer(VortexWaveError):
    """Interior evaluation requested outside the mapped strip."""


class LinearSolveFailure(VortexWaveError):
    """The discretized layer operator could not be factorized or solved."""


class NewtonFailure(VortexWaveError):
    """Newton iteration failed to converge within its budget."""


class SingularBorderedSystem(VortexWaveError):
    """The bordered tangent/corrector system is numerically singular."""


class NonFiniteEntry(VortexWaveError):
    """A state, residual, or record contains NaN or Inf."""


class ConfigError(VortexWaveError):
    """Base class for configuration problems (maps to CLI exit code 2)."""


class ParseError(ConfigError):
    """Configuration text could not be parsed; message names the key or line."""


class ValidationError(ConfigError):
    """Parsed configuration violates an invariant; message names it."""
