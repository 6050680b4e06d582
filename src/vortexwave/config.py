"""Run configuration: INI-style text to validated parameter objects.

Four flat sections (physical, discretization, continuation, output), all
optional; missing keys fill in from the desk-scale defaults.  Unknown
sections, [DEFAULT] among them, and unknown keys are rejected so typos
never silently fall back to a default.  The [physical] keys are the scalar
fields of `PhysicalParameters` plus the vortex pair's heights vortex_y and
phantom_y; the [continuation] keys are exactly the fields of
`ContinuationSettings`.  Both take their defaults from those
dataclasses.  The resolved configuration canonicalizes to
sorted key=value lines whose hash stamps every output file of a run; the
output directory is not part of it.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields

import numpy as np

from .continuation import ContinuationSettings
from .errors import ParseError, ValidationError
from .layers import GAP_FLOOR_FRACTION
from .system import PhysicalParameters
from .vortex import VortexPair


def _scalars(source) -> dict:
    """Field -> value of a parameter dataclass, less the vortex pair.

    Of the class, the values are the defaults; the configuration gives the
    pair as two heights."""
    return {f.name: getattr(source, f.name) for f in fields(source)
            if f.name != "pair"}


_SECTIONS = {
    "physical": {**_scalars(PhysicalParameters),
                 "vortex_y": PhysicalParameters.pair.lower[1],
                 "phantom_y": None},  # None mirrors vortex_y
    "discretization": {"n_modes": 64, "m_vertical": 32},
    "continuation": _scalars(ContinuationSettings),
    "output": {"directory": "out"},
}


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParameters
    n_modes: int
    m_vertical: int
    settings: ContinuationSettings
    out_dir: str

    def resolved(self) -> dict:
        """"section.key" -> value of every key but the output directory."""
        pair = self.params.pair
        sections = {
            "physical": {**_scalars(self.params), "vortex_y": pair.lower[1],
                         "phantom_y": pair.upper[1]},
            "discretization": {"n_modes": self.n_modes,
                               "m_vertical": self.m_vertical},
            "continuation": _scalars(self.settings),
        }
        return {f"{section}.{key}": value
                for section, values in sections.items()
                for key, value in values.items()}

    def canonical(self) -> str:
        """Sorted key=value lines of the fully resolved configuration."""
        return "\n".join(f"{key}={value!r}"
                         for key, value in sorted(self.resolved().items()))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]


def _convert(section: str, key: str, raw, default):
    text = str(raw).strip()
    where = f"[{section}] {key}"
    if default is None or isinstance(default, float):
        if text == "":
            return None if default is None else default
        try:
            return float(text)
        except ValueError as exc:
            raise ParseError(f"{where}: expected a number, got {text!r}") from exc
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError as exc:
            raise ParseError(f"{where}: expected an integer, got {text!r}") from exc
    return text


def load_config(text: str) -> RunConfig:
    """Parse, fill defaults, validate; raises ParseError/ValidationError."""
    # no header names the empty section, so [DEFAULT] is an ordinary
    # section and is rejected below like any other unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"unparseable configuration: {exc}") from exc

    values = {section: dict(defaults)
              for section, defaults in _SECTIONS.items()}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParseError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ParseError(f"unknown key {key!r} in [{section}]")
            values[section][key] = _convert(
                section, key, raw, _SECTIONS[section][key]
            )

    phys = values["physical"]
    disc = values["discretization"]
    cont = values["continuation"]

    if disc["n_modes"] < 8 or disc["n_modes"] % 2:
        raise ValidationError("n_modes must be even and at least 8")
    if disc["m_vertical"] < 8:
        raise ValidationError("m_vertical must be at least 8")
    # numpy raises ValueError, not MemoryError, for an array whose bytes it
    # cannot index, such as a layer's dense u x u operator
    unknowns = (disc["n_modes"] + 1) * (disc["m_vertical"] + 1)
    if 8 * unknowns**2 > np.iinfo(np.intp).max:
        raise ValidationError(f"n_modes and m_vertical give {unknowns} "
                              "unknowns, too many for a numpy array")

    vortex_y = phys["vortex_y"]
    phantom_y = -vortex_y if phys["phantom_y"] is None else phys["phantom_y"]
    try:
        params = PhysicalParameters(
            **{k: phys[k] for k in _scalars(PhysicalParameters)},
            pair=VortexPair((0.0, vortex_y), (0.0, phantom_y)),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    try:
        settings = ContinuationSettings(
            **{k: cont[k] for k in _scalars(ContinuationSettings)}
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    floor = settings.gap_floor
    if floor is not None and not (
            GAP_FLOOR_FRACTION * params.depth <= floor < params.depth):
        raise ValidationError(
            f"gap_floor must lie in [{GAP_FLOOR_FRACTION} * depth, depth); "
            "below that the layer solver's own floor fires first"
        )

    return RunConfig(
        params=params,
        n_modes=disc["n_modes"],
        m_vertical=disc["m_vertical"],
        settings=settings,
        out_dir=values["output"]["directory"],
    )


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return load_config(text)
