"""Run configuration: documented key-value schema with explicit units.

Format: `[section]` headers, `key = value` lines, `#` comments, UTF-8.  Every
value carries its unit; unknown sections or keys are rejected with the line
number.  All defaults are filled in and echoed back so a run is reproducible
from its output metadata alone.

Sections and keys::

    [geometry]
    lambda_dip = 810 nm         trap wavelength
    lambda_brg = 780 nm         probe wavelength
    angle      = bragg          or e.g. "15.64 deg" / "0.273 rad"
    U0         = 500 uK         trap depth; also "0.6 Gamma", "10 MHz", "... rad/s"
    T          = 0.4*U0         or "90 uK" / "0 K"
    w_dip      = 220 um
    w_brg      = 800 um

    [response]
    gamma = 6 MHz               natural linewidth
    lines = default             or "offset strength; ..." with offsets in Gamma

    [model]
    kind      = two_component   perfect | sequential | two_component
    n         = 3e11 cm^-3      mean density
    n_s       = 600             lattice periods
    n_ss      = 20              sublayers per period
    f_dw      = 0.2             ordered fraction (two_component only)
    stark     = off             on | off (sequential only)
    potential = harmonic        harmonic | sinusoidal

    [scan]
    grid            = -40 15 1101     detuning grid in Gamma: start stop points
    delta_lambda    = 0 nm            lattice mismatch; list allowed for scan-lattice
    atom_numbers    = 1e5 4e7 13      log grid for scan-atoms: start stop points
    samples_per_gap = 64              field-profile sampling
    profile_delta   = 0               field-profile detuning, units of Gamma
    eta             = 0.16            probe/cloud overlap fraction for powers
    p_i             = 30 uW           incident power for powers
    out             = spectrum        output base name
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .engine import SlabChain
from .geometry import LatticeGeometry, bragg_angle, hbar, k_B
from .models import ThermalModelConfig, perfect_lattice, sequential_lattice, \
    two_component_lattice, POTENTIAL_FORMS
from .response import AtomResponseConfig, SpectralLine, rb85_d2_f3_lines


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


_LENGTH = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_TEMPERATURE = {"K": 1.0, "mK": 1e-3, "uK": 1e-6, "nK": 1e-9}
_DENSITY = {"m^-3": 1.0, "cm^-3": 1e6}
_POWER = {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9}
_FREQ_ANGULAR = {"rad/s": 1.0, "GHz": 2e9 * math.pi, "MHz": 2e6 * math.pi,
                 "kHz": 2e3 * math.pi, "Hz": 2.0 * math.pi}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def _split_value(raw: str, line: int):
    m = re.fullmatch(rf"({_NUMBER})\s*([^\s]*)", raw.strip())
    if not m:
        raise ConfigError(f"cannot parse numeric value {raw!r}", line)
    return float(m.group(1)), m.group(2)


def _with_unit(raw: str, table: dict, what: str, line: int) -> float:
    value, unit = _split_value(raw, line)
    if unit not in table:
        raise ConfigError(
            f"{what} needs a unit from {sorted(table)}, got {raw!r}", line)
    return value * table[unit]


def _parse_length(raw, line):
    return _with_unit(raw, _LENGTH, "length", line)


def _parse_density(raw, line):
    return _with_unit(raw, _DENSITY, "density", line)


def _parse_power(raw, line):
    return _with_unit(raw, _POWER, "power", line)


def _parse_angular(raw, line, gamma=None, what="frequency"):
    """Angular frequency; accepts rad/s, Hz-multiples, Gamma multiples, uK."""
    value, unit = _split_value(raw, line)
    if unit in _FREQ_ANGULAR:
        return value * _FREQ_ANGULAR[unit]
    if unit == "Gamma":
        if gamma is None:
            raise ConfigError("Gamma units not available here", line)
        return value * gamma
    if unit in _TEMPERATURE:
        return value * _TEMPERATURE[unit] * k_B / hbar
    raise ConfigError(f"{what} needs rad/s, Hz-multiples, Gamma or a "
                      f"temperature unit, got {raw!r}", line)


def _parse_temperature(raw, line, u0=None):
    m = re.fullmatch(rf"({_NUMBER})\s*\*\s*U0", raw.strip())
    if m:
        if u0 is None:
            raise ConfigError("'*U0' temperature needs U0 resolved first", line)
        return float(m.group(1)) * hbar * u0 / k_B
    value, unit = _split_value(raw, line)
    if unit not in _TEMPERATURE:
        raise ConfigError(f"temperature needs {sorted(_TEMPERATURE)} or "
                          f"'x*U0', got {raw!r}", line)
    return value * _TEMPERATURE[unit]


def _parse_int(raw, line):
    try:
        return int(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"expected integer, got {raw!r}", line) from exc


def _parse_float(raw, line):
    try:
        return float(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"expected number, got {raw!r}", line) from exc


def _parse_switch(raw, line):
    lowered = raw.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected on/off, got {raw!r}", line)


def _parse_triple(raw, line):
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"expected 'start stop points', got {raw!r}", line)
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {raw!r}", line) from exc


def _parse_length_list(raw, line):
    parts = raw.split()
    if len(parts) < 2 or parts[-1] not in _LENGTH:
        raise ConfigError(f"expected 'v1 v2 ... unit', got {raw!r}", line)
    scale = _LENGTH[parts[-1]]
    try:
        return [float(p) * scale for p in parts[:-1]]
    except ValueError as exc:
        raise ConfigError(f"bad length list {raw!r}", line) from exc


def _parse_lines(raw, line, gamma):
    if raw.strip().lower() == "default":
        return rb85_d2_f3_lines(gamma)
    entries = []
    for chunk in raw.split(";"):
        parts = chunk.split()
        if len(parts) != 2:
            raise ConfigError(
                f"line entries are 'offset strength' pairs, got {chunk!r}", line)
        try:
            entries.append(SpectralLine(float(parts[0]) * gamma, float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"bad line entry {chunk!r}", line) from exc
    total = sum(e.strength for e in entries)
    if total <= 0.0:
        raise ConfigError("line strengths must be positive", line)
    return tuple(SpectralLine(e.delta_f, e.strength / total) for e in entries)


_SCHEMA = {
    "geometry": {
        "lambda_dip": "810 nm",
        "lambda_brg": "780 nm",
        "angle": "bragg",
        "U0": "500 uK",
        "T": "0.4*U0",
        "w_dip": "220 um",
        "w_brg": "800 um",
    },
    "response": {
        "gamma": "6 MHz",
        "lines": "default",
    },
    "model": {
        "kind": "two_component",
        "n": "3e11 cm^-3",
        "n_s": "600",
        "n_ss": "20",
        "f_dw": "0.2",
        "stark": "off",
        "potential": "harmonic",
    },
    "scan": {
        "grid": "-40 15 1101",
        "delta_lambda": "0 nm",
        "atom_numbers": "1e5 4e7 13",
        "samples_per_gap": "64",
        "profile_delta": "0",
        "eta": "0.16",
        "p_i": "30 uW",
        "out": "spectrum",
    },
}

MODEL_KINDS = ("perfect", "sequential", "two_component")


@dataclass(frozen=True)
class ModelSettings:
    kind: str
    n: float
    n_s: int
    n_ss: int
    f_dw: float
    stark: bool
    potential: str

    def build_chain(self, geom: LatticeGeometry) -> SlabChain:
        if self.kind == "perfect":
            return perfect_lattice(self.n, self.n_s, geom)
        if self.kind == "sequential":
            cfg = ThermalModelConfig(self.n, self.n_s, self.n_ss, geom.T,
                                     geom.U0, self.stark, self.potential)
            return sequential_lattice(cfg, geom)
        return two_component_lattice(self.n, self.f_dw, self.n_s, self.n_ss, geom)


@dataclass(frozen=True)
class ScanSettings:
    grid_start: float
    grid_stop: float
    grid_points: int
    delta_lambdas: tuple
    atom_start: float
    atom_stop: float
    atom_points: int
    samples_per_gap: int
    profile_delta: float
    eta: float
    p_i: float
    out: str

    def detuning_grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)

    def atom_numbers(self) -> np.ndarray:
        return np.logspace(math.log10(self.atom_start),
                           math.log10(self.atom_stop), self.atom_points)


@dataclass(frozen=True)
class RunConfig:
    geometry: LatticeGeometry
    response: AtomResponseConfig
    model: ModelSettings
    scan: ScanSettings
    echo: dict

    def build_chain(self, geom: LatticeGeometry | None = None) -> SlabChain:
        return self.model.build_chain(self.geometry if geom is None else geom)


def _read_entries(text: str) -> dict:
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"malformed section header {raw!r}", lineno)
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration, filling in every default."""
    entries = _read_entries(text)

    def get(section, key):
        default = _SCHEMA[section][key]
        return entries.get((section, key), (default, None))

    echo = {}

    def note(section, key, value_str):
        echo[f"{section}.{key}"] = value_str

    raw, ln = get("response", "gamma")
    gamma = _parse_angular(raw, ln, what="gamma")
    note("response", "gamma", raw)

    raw, ln = get("geometry", "lambda_dip")
    lambda_dip = _parse_length(raw, ln)
    note("geometry", "lambda_dip", raw)
    raw, ln = get("geometry", "lambda_brg")
    lambda_brg = _parse_length(raw, ln)
    note("geometry", "lambda_brg", raw)

    raw, ln = get("geometry", "angle")
    if raw.strip().lower() == "bragg":
        try:
            beta_i = bragg_angle(lambda_brg, lambda_dip)
        except ValueError as exc:
            raise ConfigError(str(exc), ln) from exc
        note("geometry", "angle", f"bragg ({math.degrees(beta_i):.6f} deg)")
    else:
        value, unit = _split_value(raw, ln)
        if unit == "deg":
            beta_i = math.radians(value)
        elif unit == "rad":
            beta_i = value
        else:
            raise ConfigError(f"angle needs deg/rad or 'bragg', got {raw!r}", ln)
        note("geometry", "angle", raw)

    raw, ln = get("geometry", "U0")
    u0 = _parse_angular(raw, ln, gamma=gamma, what="U0")
    note("geometry", "U0", raw)
    raw, ln = get("geometry", "T")
    temperature = _parse_temperature(raw, ln, u0=u0)
    note("geometry", "T", f"{raw} ({temperature * 1e6:.6g} uK)")
    raw, ln = get("geometry", "w_dip")
    w_dip = _parse_length(raw, ln)
    note("geometry", "w_dip", raw)
    raw, ln = get("geometry", "w_brg")
    w_brg = _parse_length(raw, ln)
    note("geometry", "w_brg", raw)

    try:
        geometry = LatticeGeometry(lambda_dip, lambda_brg, beta_i, u0,
                                   temperature, w_dip, w_brg)
    except ValueError as exc:
        raise ConfigError(f"invalid geometry: {exc}") from exc

    raw, ln = get("response", "lines")
    lines = _parse_lines(raw, ln, gamma)
    note("response", "lines", "; ".join(
        f"{line.delta_f / gamma:g} {line.strength:.6g}" for line in lines))
    response = AtomResponseConfig(gamma, lines, lambda_brg)

    raw, ln = get("model", "kind")
    kind = raw.strip()
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model kind must be one of {MODEL_KINDS}", ln)
    note("model", "kind", kind)
    raw, ln = get("model", "n")
    density = _parse_density(raw, ln)
    note("model", "n", raw)
    raw, ln = get("model", "n_s")
    n_s = _parse_int(raw, ln)
    note("model", "n_s", raw)
    raw, ln = get("model", "n_ss")
    n_ss = _parse_int(raw, ln)
    note("model", "n_ss", raw)
    raw, ln = get("model", "f_dw")
    f_dw = _parse_float(raw, ln)
    if not 0.0 <= f_dw <= 1.0:
        raise ConfigError("f_dw must lie in [0, 1]", ln)
    note("model", "f_dw", raw)
    raw, ln = get("model", "stark")
    stark = _parse_switch(raw, ln)
    note("model", "stark", "on" if stark else "off")
    raw, ln = get("model", "potential")
    potential = raw.strip()
    if potential not in POTENTIAL_FORMS:
        raise ConfigError(f"potential must be one of {POTENTIAL_FORMS}", ln)
    note("model", "potential", potential)
    if n_s < 1 or n_ss < 1:
        raise ConfigError("n_s and n_ss must be >= 1")
    model = ModelSettings(kind, density, n_s, n_ss, f_dw, stark, potential)

    raw, ln = get("scan", "grid")
    g_start, g_stop, g_points = _parse_triple(raw, ln)
    if g_points < 2 or g_stop <= g_start:
        raise ConfigError("grid needs start < stop and at least 2 points", ln)
    note("scan", "grid", raw)
    raw, ln = get("scan", "delta_lambda")
    delta_lambdas = tuple(_parse_length_list(raw, ln))
    note("scan", "delta_lambda", raw)
    raw, ln = get("scan", "atom_numbers")
    a_start, a_stop, a_points = _parse_triple(raw, ln)
    if a_start <= 0 or a_stop <= a_start or a_points < 2:
        raise ConfigError("atom_numbers needs 0 < start < stop, points >= 2", ln)
    note("scan", "atom_numbers", raw)
    raw, ln = get("scan", "samples_per_gap")
    samples = _parse_int(raw, ln)
    if samples < 2:
        raise ConfigError("samples_per_gap must be >= 2", ln)
    note("scan", "samples_per_gap", raw)
    raw, ln = get("scan", "profile_delta")
    profile_delta = _parse_float(raw, ln)
    note("scan", "profile_delta", raw)
    raw, ln = get("scan", "eta")
    eta = _parse_float(raw, ln)
    if not 0.0 <= eta <= 1.0:
        raise ConfigError("eta must lie in [0, 1]", ln)
    note("scan", "eta", raw)
    raw, ln = get("scan", "p_i")
    p_i = _parse_power(raw, ln)
    note("scan", "p_i", raw)
    raw, ln = get("scan", "out")
    out = raw.strip()
    note("scan", "out", out)

    scan = ScanSettings(g_start, g_stop, g_points, delta_lambdas,
                        a_start, a_stop, a_points, samples, profile_delta,
                        eta, p_i, out)
    return RunConfig(geometry, response, model, scan, echo)


def default_config_text() -> str:
    """A fully commented configuration with every default spelled out."""
    blocks = []
    for section, keys in _SCHEMA.items():
        blocks.append(f"[{section}]")
        for key, default in keys.items():
            blocks.append(f"{key} = {default}")
        blocks.append("")
    return "\n".join(blocks)
