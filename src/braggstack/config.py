"""Run configuration: documented key-value schema with explicit units.

Format: `[section]` headers, `key = value` lines, `#` comments, UTF-8.  Every
value carries its unit; unknown sections or keys, and values that do not
parse or lie out of range, are rejected with the line number.  All defaults
are filled in and echoed back so a run is reproducible from its output
metadata alone.

Sections and keys, generated from the schema table `_TABLE`::
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
_ANGLE = {"deg": math.pi / 180.0, "rad": 1.0}  # math.radians' own factor

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"

MODEL_KINDS = ("perfect", "sequential", "two_component")

# A parser maps (raw, line, values) to a value: raw is the value as written,
# line its line number (None for a default) and values[section, key] the
# value of another key it depends on.


def _finite(value, raw, line):
    if not math.isfinite(value):
        raise ConfigError(f"value outside the finite float range: {raw!r}", line)
    return value


def _number(raw, line, values=None, kind=float):
    try:
        value = kind(raw)
    except ValueError:
        what = "integer" if kind is int else "number"
        raise ConfigError(f"expected {what}, got {raw!r}", line) from None
    return value if kind is int else _finite(value, raw, line)


def _split_value(raw, line):
    m = re.fullmatch(rf"({_NUMBER})\s*([^\s]*)", raw)
    if not m:
        raise ConfigError(f"cannot parse numeric value {raw!r}", line)
    return float(m.group(1)), m.group(2)


def _check(parse, ok, message):
    """parse, then raise `message` at the value's line unless ok(value)."""
    def checked(raw, line, values):
        value = parse(raw, line, values)
        if not ok(value):
            raise ConfigError(message, line)
        return value
    return checked


def _with_unit(table, what):
    def parse(raw, line, values):
        value, unit = _split_value(raw, line)
        if unit not in table:
            raise ConfigError(
                f"{what} needs a unit from {sorted(table)}, got {raw!r}", line)
        return _finite(value * table[unit], raw, line)
    return parse


def _angular(what):
    """Positive angular frequency in rad/s, Hz-multiples, Gamma or uK."""
    def parse(raw, line, values):
        value, unit = _split_value(raw, line)
        if unit in _FREQ_ANGULAR:
            value = value * _FREQ_ANGULAR[unit]
        elif unit == "Gamma":
            if what == "gamma":
                raise ConfigError("Gamma units not available here", line)
            value = value * values["response", "gamma"]
        elif unit in _TEMPERATURE:
            value = value * _TEMPERATURE[unit] * k_B / hbar
        else:
            raise ConfigError(f"{what} needs rad/s, Hz-multiples, Gamma or a "
                              f"temperature unit, got {raw!r}", line)
        return _finite(value, raw, line)
    return _check(parse, lambda v: v > 0.0, f"{what} must be positive")


def _temperature(raw, line, values):
    """A temperature, or a multiple of U0 written 'x*U0'."""
    m = re.fullmatch(rf"({_NUMBER})\s*\*\s*U0", raw)
    if not m:
        return _absolute_temperature(raw, line, values)
    value = float(m.group(1)) * hbar * values["geometry", "U0"] / k_B
    return _finite(value, raw, line)


def _probe_wavelength(raw, line, values):
    value = _length(raw, line, values)
    lambda_dip = values["geometry", "lambda_dip"]
    if value > lambda_dip:
        raise ConfigError(
            f"need 0 < lambda_brg <= lambda_dip, got lambda_brg={value!r} "
            f"lambda_dip={lambda_dip!r}",
            values.raw(("geometry", "lambda_dip"))[1] if line is None else line)
    return value


def _angle(raw, line, values):
    """'bragg' (the angle that matches the lattice) or an angle unit."""
    if raw.lower() == "bragg":
        return bragg_angle(values["geometry", "lambda_brg"],
                           values["geometry", "lambda_dip"])
    return _explicit_angle(raw, line, values)


def _lines(raw, line, values):
    gamma = values["response", "gamma"]
    if raw.lower() == "default":
        return rb85_d2_f3_lines(gamma)
    entries = []
    for chunk in raw.split(";"):
        parts = chunk.split()
        if len(parts) != 2:
            raise ConfigError(
                f"line entries are 'offset strength' pairs, got {chunk!r}", line)
        offset, strength = (_number(p, line) for p in parts)
        if strength < 0.0:
            raise ConfigError(f"bad line entry {chunk!r}", line)
        entries.append((_finite(offset * gamma, chunk, line), strength))
    total = _finite(sum(strength for _, strength in entries), raw, line)
    if total <= 0.0:
        raise ConfigError("line strengths must be positive", line)
    return tuple(SpectralLine(delta_f, strength / total)
                 for delta_f, strength in entries)


def _choice(options, what):
    def parse(raw, line, values):
        if raw not in options:
            raise ConfigError(f"{what} must be one of {options}", line)
        return raw
    return parse


def _at_least(minimum, key):
    return _check(lambda raw, line, values: _number(raw, line, kind=int),
                  lambda v: v >= minimum, f"{key} must be >= {minimum}")


def _fraction(key):
    return _check(_number, lambda v: 0.0 <= v <= 1.0, f"{key} must lie in [0, 1]")


def _switch(raw, line, values):
    lowered = raw.lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected on/off, got {raw!r}", line)


def _triple(raw, line, values):
    parts = raw.split()
    if len(parts) != 3:
        raise ConfigError(f"expected 'start stop points', got {raw!r}", line)
    return (_number(parts[0], line), _number(parts[1], line),
            _number(parts[2], line, kind=int))


def _length_list(raw, line, values):
    parts = raw.split()
    if len(parts) < 2 or parts[-1] not in _LENGTH:
        raise ConfigError(f"expected 'v1 v2 ... unit', got {raw!r}", line)
    scale = _LENGTH[parts[-1]]
    return tuple(_finite(_number(p, line) * scale, raw, line)
                 for p in parts[:-1])


_length = _check(_with_unit(_LENGTH, "length"), lambda v: v > 0.0,
                 "length must be positive")
_density = _check(_with_unit(_DENSITY, "density"), lambda v: v >= 0.0,
                  "density must be non-negative")
_power = _check(_with_unit(_POWER, "power"), lambda v: v >= 0.0,
                "power must be non-negative")
_absolute_temperature = _with_unit(_TEMPERATURE, "temperature (or 'x*U0')")
_explicit_angle = _check(_with_unit(_ANGLE, "angle (or 'bragg')"),
                         lambda v: 0.0 <= v < math.pi / 2.0,
                         "angle must lie in [0, 90) deg")


def _echo_angle(raw, beta_i, values):
    if raw.lower() == "bragg":
        return f"bragg ({math.degrees(beta_i):.6f} deg)"
    return raw


def _echo_lines(raw, lines, values):
    gamma = values["response", "gamma"]
    return "; ".join(f"{line.delta_f / gamma:g} {line.strength:.6g}"
                     for line in lines)


# Sections and their keys in file order; a section's values, in key order,
# are the fields of its settings object (the grid and atom_numbers triples
# fill three fields each).  `echo` maps (raw, value, values) to the text
# recorded in the output metadata; None records raw as written.
_TABLE = {
    "geometry": (
        # key, default, parse, echo, doc
        ("lambda_dip", "810 nm", _length, None, "trap wavelength"),
        ("lambda_brg", "780 nm", _probe_wavelength, None, "probe wavelength"),
        ("angle", "bragg", _angle, _echo_angle, 'or e.g. "15.64 deg" / "0.273 rad"'),
        ("U0", "500 uK", _angular("U0"), None,
         'trap depth; also "0.6 Gamma", "10 MHz", "... rad/s"'),
        ("T", "0.4*U0",
         _check(_temperature, lambda t: t >= 0.0, "T must be non-negative"),
         lambda raw, t, _: f"{raw} ({t * 1e6:.6g} uK)", 'or "90 uK" / "0 K"'),
        ("w_dip", "220 um", _length, None, "trap waist"),
    ),
    "response": (
        ("gamma", "6 MHz", _angular("gamma"), None, "natural linewidth"),
        ("lines", "default", _lines, _echo_lines,
         'or "offset strength; ..." with offsets in Gamma'),
    ),
    "model": (
        ("kind", "two_component", _choice(MODEL_KINDS, "model kind"), None,
         " | ".join(MODEL_KINDS)),
        ("n", "3e11 cm^-3", _density, None, "mean density"),
        ("n_s", "600", _at_least(1, "n_s"), None, "lattice periods"),
        ("n_ss", "20", _at_least(1, "n_ss"), None, "sublayers per period"),
        ("f_dw", "0.2", _fraction("f_dw"), None,
         "ordered fraction (two_component only)"),
        ("stark", "off", _switch, lambda raw, on, _: "on" if on else "off",
         "on | off (sequential only)"),
        ("potential", "harmonic", _choice(POTENTIAL_FORMS, "potential"), None,
         " | ".join(POTENTIAL_FORMS)),
    ),
    "scan": (
        ("grid", "-40 15 1101",
         _check(_triple, lambda g: g[0] < g[1] and g[2] >= 2,
                "grid needs start < stop and at least 2 points"),
         None, "detuning grid in Gamma: start stop points"),
        ("delta_lambda", "0 nm", _length_list, None,
         "lattice mismatch list; read by scan-lattice only"),
        ("atom_numbers", "1e5 4e7 13",
         _check(_triple, lambda a: 0 < a[0] < a[1] and a[2] >= 2,
                "atom_numbers needs 0 < start < stop, points >= 2"),
         None, "log grid for scan-atoms: start stop points"),
        ("samples_per_gap", "64", _at_least(2, "samples_per_gap"), None,
         "field-profile sampling"),
        ("profile_delta", "0", _number, None,
         "field-profile detuning, units of Gamma"),
        ("eta", "0.16", _fraction("eta"), None,
         "probe/cloud overlap fraction for powers"),
        ("p_i", "30 uW", _power, None, "incident power for powers"),
        ("out", "spectrum", lambda raw, line, values: raw, None, "output base name"),
    ),
}
_ROWS = {(section, row[0]): row for section, rows in _TABLE.items()
         for row in rows}


def _schema_doc() -> str:
    blocks = []
    for section, rows in _TABLE.items():
        width = max(len(key) for key, *_ in rows)
        blocks.append(f"\n    [{section}]\n" + "".join(
            f"    {key:<{width}} = {default:<16} {doc}\n"
            for key, default, _, _, doc in rows))
    return "".join(blocks)


if __doc__:  # None under python -OO
    __doc__ += _schema_doc()


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
            if section not in _TABLE:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {raw!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if (section, key) not in _ROWS:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


class _Values(dict):
    """(section, key) -> value, each parsed on first lookup together with
    the keys it reads (U0 in Gamma reads gamma, T = x*U0 reads U0, ...)."""

    def __init__(self, entries: dict):
        super().__init__()
        self.entries = entries

    def raw(self, item):
        """(value as written, line), or (default, None) if not given."""
        return self.entries.get(item, (_ROWS[item][1], None))

    def __missing__(self, item):
        self[item] = value = _ROWS[item][2](*self.raw(item), self)
        return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration, filling in every default."""
    values = _Values(_read_entries(text))
    echo, fields = {}, {}
    for section, rows in _TABLE.items():
        fields[section] = []
        for key, _, _, show, _ in rows:
            value, raw = values[section, key], values.raw((section, key))[0]
            echo[f"{section}.{key}"] = raw if show is None else show(raw, value, values)
            fields[section].append(value)
    geometry = LatticeGeometry(*fields["geometry"])
    response = AtomResponseConfig(*fields["response"], geometry.lambda_brg)
    grid, delta_lambdas, atoms, *rest = fields["scan"]
    scan = ScanSettings(*grid, delta_lambdas, *atoms, *rest)
    return RunConfig(geometry, response, ModelSettings(*fields["model"]), scan, echo)


def default_config_text() -> str:
    """A configuration file that spells out every key at its default."""
    blocks = []
    for section, rows in _TABLE.items():
        blocks.append(f"[{section}]")
        blocks.extend(f"{key} = {default}" for key, default, *_ in rows)
        blocks.append("")
    return "\n".join(blocks)
