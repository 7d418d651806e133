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
from .experiments import atom_number_to_density, detuning_grid
from .geometry import LatticeGeometry, bragg_angle, hbar, k_B
from .models import ThermalModelConfig, perfect_lattice, sequential_lattice, \
    two_component_lattice, POTENTIAL_FORMS
from .response import AtomResponseConfig, SpectralLine, rb85_d2_f3_lines


class ConfigError(ValueError):
    default = False  # True once the message names a refused default's key

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

_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

MODEL_KINDS = ("perfect", "sequential", "two_component")
NAME_MAX = 255  # bytes in a file name on common file systems

# A parser maps (raw, line, values) to a value: raw is the value as written,
# line its line number (None for a default) and values[section, key] the
# value of another key it depends on.


def _finite(value, raw, line):
    if not math.isfinite(value):
        raise ConfigError(f"value outside the finite float range: {raw!r}", line)
    return value


def _number(raw, line, values=None, kind=float):
    """A plain number in the syntax of quantities: no '_', nan or inf."""
    try:
        if not re.fullmatch(r"[+-]?[0-9]+" if kind is int else _NUMBER, raw):
            raise ValueError(raw)
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
            f"lambda_dip={lambda_dip!r}", values.line("lambda_brg", "lambda_dip"))
    return value


def _angle(raw, line, values):
    """'bragg' (the angle that matches the lattice) or an angle unit."""
    if raw.lower() != "bragg":
        return _explicit_angle(raw, line, values)
    lambda_brg = values["geometry", "lambda_brg"]
    lambda_dip = values["geometry", "lambda_dip"]
    beta_i = bragg_angle(lambda_brg, lambda_dip)
    if not beta_i < math.pi / 2.0:
        raise ConfigError(
            f"the Bragg angle acos(lambda_brg / lambda_dip) rounds to 90 deg, got "
            f"lambda_brg={lambda_brg!r} lambda_dip={lambda_dip!r}",
            values.line("lambda_dip", "lambda_brg", "angle"))
    return beta_i


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


def _geometry(values) -> LatticeGeometry:
    return LatticeGeometry(*(values["geometry", key] for key, *_ in _TABLE["geometry"]))


def _grid(raw, line, values):
    start, stop, points = grid = _triple(raw, line, values)
    if not (start < stop and points >= 2):
        raise ConfigError("grid needs start < stop and at least 2 points", line)
    # ends and span in rad/s: grid points are at most |start| + |stop| apart
    _finite((abs(start) + abs(stop)) * values["response", "gamma"], raw, line)
    return grid


def _profile_delta(raw, line, values):
    value = _number(raw, line)
    _finite(value * values["response", "gamma"], raw, line)  # in rad/s
    return value


def _waist(raw, line, values):
    """A length at which one atom in a cloud of T > 0 has a density in the
    float range: scan-atoms divides by the cloud volume (at T = 0 the cloud
    has no width, and scan-atoms refuses it)."""
    w_dip = _length(raw, line, values)
    geom = LatticeGeometry(*(values["geometry", key]  # the keys before w_dip
                             for key, *_ in _TABLE["geometry"][:-1]), w_dip)
    if geom.T > 0.0:
        try:
            density = atom_number_to_density(1.0, geom)
        except OverflowError:  # sigma_r**2
            density = 0.0
        except ValueError:  # a volume of 0
            density = math.inf
        if not 0.0 < density < math.inf:
            raise ConfigError(f"w_dip is outside the float range: one atom in the "
                              f"cloud has density {density!r} m^-3", line)
    return w_dip


def _atom_numbers(raw, line, values):
    """A log grid whose last number has a finite density in the run's cloud
    (at T = 0 the cloud has no width, and scan-atoms refuses it)."""
    start, stop, points = atoms = _triple(raw, line, values)
    if not (0 < start < stop and points >= 2):
        raise ConfigError("atom_numbers needs 0 < start < stop, points >= 2", line)
    geom = _geometry(values)
    if geom.derived().sigma_r > 0.0:
        with np.errstate(over="ignore"):  # ScanSettings.atom_numbers' last number
            last = np.power(10.0, math.log10(stop))
            _finite(atom_number_to_density(last, geom), raw, line)
    return atoms


def _layer_density(n, lambda_dip, line):
    """Refuse a lattice whose layer density n * lambda_dip / 2 overflows: it
    bounds the surface density of every layer that a chain builder makes."""
    if not math.isfinite(n * (lambda_dip / 2.0)):
        raise ConfigError(f"the layer density n * lambda_dip / 2 overflows, got "
                          f"n={n!r} m^-3 lambda_dip={lambda_dip!r} m", line)


def _lattice_density(raw, line, values):
    """A mean density n whose layers at the run's lambda_dip are finite."""
    n = _density(raw, line, values)
    _layer_density(n, values["geometry", "lambda_dip"], values.line("n", "lambda_dip"))
    return n


def lattice_suffix(dl: float) -> str:
    """The file name suffix of scan-lattice's spectrum at mismatch dl (m)."""
    return f"_dl{dl * 1e9:+.3f}nm"


def _out(raw, line, values):
    """A base name whose file names fit in NAME_MAX bytes: <out>_saturation.csv
    is the longest but scan-lattice's, which _mismatches checks."""
    if re.search(r"[/\\\0]", raw):
        raise ConfigError("out must be a base name, with no '/', '\\' or NUL", line)
    if len(f"{raw}_saturation.csv".encode()) > NAME_MAX:
        raise ConfigError(f"out is {len(raw.encode())} bytes: the file name "
                          f"<out>_saturation.csv exceeds {NAME_MAX} bytes", line)
    return raw


def _mismatches(raw, line, values):
    """Lattice mismatches, each of which must keep lambda_dip >= lambda_brg
    and a finite layer density."""
    parts = raw.split()
    if len(parts) < 2 or parts[-1] not in _LENGTH:
        raise ConfigError(f"expected 'v1 v2 ... unit', got {raw!r}", line)
    scale = _LENGTH[parts[-1]]
    mismatches = tuple(_finite(_number(p, line) * scale, raw, line)
                       for p in parts[:-1])
    out, geom = values["scan", "out"], _geometry(values)
    for dl in mismatches:
        try:
            shifted = geom.with_lattice_mismatch(dl)
        except ValueError as exc:
            raise ConfigError(f"delta_lambda {dl!r} m: {exc}", line) from None
        _layer_density(values["model", "n"], shifted.lambda_dip, values.line(
            "delta_lambda", "n", "angle", "lambda_brg", "lambda_dip"))
        name = f"{out}{lattice_suffix(dl)}.csv"
        if len(name.encode()) > NAME_MAX:
            raise ConfigError(f"delta_lambda {dl!r} m: the file name {name[:60]}... "
                              f"exceeds {NAME_MAX} bytes", line)
    return mismatches


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
# are the fields of its settings object.  `echo` maps (raw, value, values)
# to the text recorded in the output metadata; None records raw as written.
_TABLE = {
    "geometry": (
        # key, default, parse, echo, doc
        ("lambda_dip", "810 nm", _length, None, "trap wavelength"),
        ("lambda_brg", "780 nm", _probe_wavelength, None, "probe wavelength"),
        ("angle", "bragg", _angle, _echo_angle, 'or e.g. "15.64 deg" / "0.273 rad"'),
        ("U0", "500 uK",
         _check(_angular("U0"), lambda u: hbar * u > 0.0,  # the widths divide by it
                "U0 is below the float range: hbar * U0 is 0 J"), None,
         'trap depth; also "0.6 Gamma", "10 MHz", "... rad/s"'),
        ("T", "0.4*U0",
         _check(_temperature, lambda t: t >= 0.0, "T must be non-negative"),
         lambda raw, t, _: f"{raw} ({t * 1e6:.6g} uK)", 'or "90 uK" / "0 K"'),
        ("w_dip", "220 um", _waist, None, "trap waist"),
    ),
    "response": (
        ("gamma", "6 MHz", _angular("gamma"), None, "natural linewidth"),
        ("lines", "default", _lines, _echo_lines,
         'or "offset strength; ..." with offsets in Gamma'),
    ),
    "model": (
        ("kind", "two_component", _choice(MODEL_KINDS, "model kind"), None,
         " | ".join(MODEL_KINDS)),
        ("n", "3e11 cm^-3", _lattice_density, None, "mean density"),
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
        ("grid", "-40 15 1101", _grid, None,
         "detuning grid in Gamma: start stop points"),
        ("delta_lambda", "0 nm", _mismatches, None,
         "lattice mismatch list; read by scan-lattice only"),
        ("atom_numbers", "1e5 4e7 13", _atom_numbers, None,
         "log grid for scan-atoms: start stop points"),
        ("samples_per_gap", "64", _at_least(2, "samples_per_gap"), None,
         "field-profile sampling"),
        ("profile_delta", "0", _profile_delta, None,
         "field-profile detuning, units of Gamma"),
        ("eta", "0.16", _fraction("eta"), None,
         "probe/cloud overlap fraction for powers"),
        ("p_i", "30 uW", _power, None, "incident power for powers"),
        ("out", "spectrum", _out, None,
         "output base name: no path separator, <= 240 bytes"),
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


@dataclass(frozen=True)
class ScanSettings:
    grid: tuple
    delta_lambdas: tuple
    atoms: tuple
    samples_per_gap: int
    profile_delta: float
    eta: float
    p_i: float
    out: str

    def detuning_grid(self) -> np.ndarray:
        return detuning_grid(*self.grid)

    def atom_numbers(self) -> np.ndarray:
        start, stop, points = self.atoms
        return np.logspace(math.log10(start), math.log10(stop), points)


@dataclass(frozen=True)
class RunConfig:
    geometry: LatticeGeometry
    response: AtomResponseConfig
    model: ModelSettings
    scan: ScanSettings
    echo: dict

    def build_chain(self, geom: LatticeGeometry | None = None) -> SlabChain:
        m, geom = self.model, self.geometry if geom is None else geom
        if m.kind == "perfect":
            return perfect_lattice(m.n, m.n_s, geom)
        if m.kind == "sequential":
            cfg = ThermalModelConfig(m.n, m.n_s, m.n_ss, geom.T, geom.U0,
                                     m.stark, m.potential)
            return sequential_lattice(cfg, geom)
        return two_component_lattice(m.n, m.f_dw, m.n_s, m.n_ss, geom)


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

    def line(self, *keys):
        """The line of the first of `keys` that the config sets, or None:
        where a value that several keys decide is refused (no key name is
        in two sections)."""
        lines = {key: line for (_, key), (_, line) in self.entries.items()}
        return next((lines[key] for key in keys if key in lines), None)

    def __missing__(self, item):
        raw, line = self.raw(item)
        try:
            self[item] = value = _ROWS[item][2](raw, line, self)
        except ConfigError as exc:
            # a default has no line to blame: name its key, once
            if line is not None or exc.line is not None or exc.default:
                raise
            error = ConfigError(f"[{item[0]}] {item[1]} = {raw} (its default): {exc}")
            error.default = True
            raise error from None
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
    geometry = _geometry(values)
    response = AtomResponseConfig(*fields["response"], geometry.lambda_brg)
    return RunConfig(geometry, response, ModelSettings(*fields["model"]),
                     ScanSettings(*fields["scan"]), echo)


def default_config_text() -> str:
    """A configuration file that spells out every key at its default."""
    blocks = []
    for section, rows in _TABLE.items():
        blocks.append(f"[{section}]")
        blocks.extend(f"{key} = {default}" for key, default, *_ in rows)
        blocks.append("")
    return "\n".join(blocks)
