"""Run configuration: INI-style text to validated parameter objects.

Four flat sections (physical, discretization, continuation, output), all
optional; missing keys fill in from the desk-scale defaults.  Unknown
sections or keys are rejected so typos never silently fall back to a
default.  The resolved configuration canonicalizes to sorted key=value
lines whose hash stamps every output file of a run.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

import numpy as np

from .continuation import ContinuationSettings
from .errors import ParseError, ValidationError
from .layers import GAP_FLOOR_FRACTION
from .system import PhysicalParameters
from .vortex import VortexPair

_PHYSICAL_KEYS = {
    "rho_lower": 1.0,
    "rho_upper": 0.9,
    "gravity": 1.0,
    "surface_tension": 0.1,
    "depth": 1.0,
    "half_period": float(np.pi),
    "bernoulli_constant": 0.0,
    "vortex_y": -0.5,
    "phantom_y": None,
}

_DISCRETIZATION_KEYS = {
    "n_modes": 64,
    "m_vertical": 32,
}

_CONTINUATION_KEYS = {
    "ds0": 5e-4,
    "ds_min": 1e-8,
    "ds_max": 2e-2,
    "newton_tol": 1e-10,
    "newton_max": 25,
    "max_steps": 200,
    "norm_cap": 1e3,
    "vortex_guard": None,
    "gap_floor": None,
    "target_strength": 1e-3,
}

_OUTPUT_KEYS = {
    "directory": "out",
}

_SECTIONS = {
    "physical": _PHYSICAL_KEYS,
    "discretization": _DISCRETIZATION_KEYS,
    "continuation": _CONTINUATION_KEYS,
    "output": _OUTPUT_KEYS,
}


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParameters
    n_modes: int
    m_vertical: int
    settings: ContinuationSettings
    target_strength: float
    out_dir: str

    def canonical(self) -> str:
        """Sorted key=value lines of the fully resolved configuration."""
        p = self.params
        entries = {
            "physical.rho_lower": p.rho_lower,
            "physical.rho_upper": p.rho_upper,
            "physical.gravity": p.gravity,
            "physical.surface_tension": p.surface_tension,
            "physical.depth": p.depth,
            "physical.half_period": p.half_period,
            "physical.bernoulli_constant": p.bernoulli_constant,
            "physical.vortex_y": p.pair.lower[1],
            "physical.phantom_y": p.pair.upper[1],
            "discretization.n_modes": self.n_modes,
            "discretization.m_vertical": self.m_vertical,
            "continuation.ds0": self.settings.ds0,
            "continuation.ds_min": self.settings.ds_min,
            "continuation.ds_max": self.settings.ds_max,
            "continuation.newton_tol": self.settings.newton_tol,
            "continuation.newton_max": self.settings.newton_max,
            "continuation.max_steps": self.settings.max_steps,
            "continuation.norm_cap": self.settings.norm_cap,
            "continuation.vortex_guard": self.settings.vortex_guard,
            "continuation.gap_floor": self.settings.gap_floor,
            "continuation.target_strength": self.target_strength,
        }
        return "\n".join(f"{k}={entries[k]!r}" for k in sorted(entries))

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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"unparseable configuration: {exc}") from exc

    resolved: dict[str, dict] = {}
    for section, defaults in _SECTIONS.items():
        resolved[section] = dict(defaults)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ParseError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ParseError(f"unknown key {key!r} in [{section}]")
            resolved[section][key] = _convert(
                section, key, raw, _SECTIONS[section][key]
            )

    phys = resolved["physical"]
    disc = resolved["discretization"]
    cont = resolved["continuation"]

    n_modes = disc["n_modes"]
    if n_modes < 8 or n_modes % 2:
        raise ValidationError("n_modes must be even and at least 8")
    if disc["m_vertical"] < 8:
        raise ValidationError("m_vertical must be at least 8")

    vortex_y = phys["vortex_y"]
    phantom_y = phys["phantom_y"]
    if phantom_y is None:
        phantom_y = -vortex_y

    try:
        pair = VortexPair((0.0, vortex_y), (0.0, phantom_y))
        params = PhysicalParameters(
            rho_lower=phys["rho_lower"],
            rho_upper=phys["rho_upper"],
            gravity=phys["gravity"],
            surface_tension=phys["surface_tension"],
            depth=phys["depth"],
            half_period=phys["half_period"],
            bernoulli_constant=phys["bernoulli_constant"],
            pair=pair,
        )
    except ValueError as exc:
        if "upper density" in str(exc):
            raise ValidationError(
                "(rho_upper - rho_lower) * gravity < 0 required: "
                "need rho_upper < rho_lower"
            ) from exc
        raise ValidationError(str(exc)) from exc

    try:
        settings = ContinuationSettings(
            ds0=cont["ds0"],
            ds_min=cont["ds_min"],
            ds_max=cont["ds_max"],
            newton_tol=cont["newton_tol"],
            newton_max=int(cont["newton_max"]),
            max_steps=int(cont["max_steps"]),
            norm_cap=cont["norm_cap"],
            vortex_guard=cont["vortex_guard"],
            gap_floor=cont["gap_floor"],
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

    target = cont["target_strength"]
    if not np.isfinite(target):
        raise ValidationError("target_strength must be finite")

    return RunConfig(
        params=params,
        n_modes=int(n_modes),
        m_vertical=int(disc["m_vertical"]),
        settings=settings,
        target_strength=float(target),
        out_dir=resolved["output"]["directory"],
    )


def load_config_file(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return load_config(text)
