"""Complex single-layer reflection coefficient and absorption cross section.

Both come from one line shape.  A layer of surface density n*dz responds to
probe light detuned by delta with

    zeta(delta) = -(n*dz) * (sigma0/2) * sum_F s_F / (i + 2*(delta - delta_F)/Gamma)

with sigma0 = 3 lambda**2 / 2pi, so Im(zeta) >= 0 for every real detuning
(passive, absorbing medium), and an atom absorbs with the cross section
sigma(delta) = -sigma0 * Im(sum_F ...).  The response is strictly linear in
the density: saturation is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_RB85_D2 = 2.0 * math.pi * 6.0e6  # natural linewidth, rad/s


@dataclass(frozen=True)
class SpectralLine:
    """One hyperfine transition: offset from the reference line and weight."""

    delta_f: float  # rad/s
    strength: float

    def __post_init__(self):
        if not math.isfinite(self.delta_f):
            raise ValueError("line offset delta_f must be finite")
        if not self.strength >= 0.0:
            raise ValueError("line strength must be non-negative")


def rb85_d2_f3_lines(gamma: float = GAMMA_RB85_D2) -> tuple[SpectralLine, ...]:
    """Default line set: 85Rb D2, F=3 -> F'=2,3,4.

    Offsets are -31*Gamma, -20*Gamma and 0 (reference zero on F'=4).  The
    relative strengths 10:35:81 are hyperfine strength factors from standard
    alkali line-data tables; they are external data, not derived here.
    """
    total = 10.0 + 35.0 + 81.0
    return (
        SpectralLine(-31.0 * gamma, 10.0 / total),
        SpectralLine(-20.0 * gamma, 35.0 / total),
        SpectralLine(0.0, 81.0 / total),
    )


@dataclass(frozen=True)
class AtomResponseConfig:
    """Linewidth, hyperfine line set and probe wavelength of the scatterers."""

    gamma: float
    lines: tuple[SpectralLine, ...]
    lambda_brg: float

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.lines:
            raise ValueError("need at least one spectral line")
        if not self.lambda_brg > 0.0:
            raise ValueError("lambda_brg must be positive")
        total = sum(line.strength for line in self.lines)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"line strengths must sum to 1, got {total}")


def single_line_config() -> AtomResponseConfig:
    """One unit-strength line; handy for symmetry tests and clean limits."""
    return AtomResponseConfig(GAMMA_RB85_D2, (SpectralLine(0.0, 1.0),), 780e-9)


def default_config() -> AtomResponseConfig:
    return AtomResponseConfig(GAMMA_RB85_D2, rb85_d2_f3_lines(), 780e-9)


def resonant_cross_section(lambda_brg: float) -> float:
    """Peak cross section sigma0 = 3*lambda**2/(2*pi) of a unit-strength line."""
    return 3.0 * lambda_brg**2 / (2.0 * math.pi)


def line_response(delta_brg, cfg: AtomResponseConfig) -> np.ndarray:
    """sum_F s_F / (i + 2*(delta - delta_F)/Gamma), the detuning factor of zeta."""
    delta = np.asarray(delta_brg, dtype=float)
    resp = np.zeros(delta.shape, dtype=complex)
    with np.errstate(over="ignore"):  # a quotient of inf gives the limit 0
        for line in cfg.lines:  # 2*(delta - delta_F)/Gamma to the bit, no 2*delta
            resp += line.strength / (1j + (delta - line.delta_f) / (0.5 * cfg.gamma))
    return resp


def zeta(surface_density, delta_brg, cfg: AtomResponseConfig):
    """Complex single-layer reflection coefficient.

    Broadcasts over `surface_density` and `delta_brg` (scalars or arrays).
    """
    out = -np.asarray(surface_density, dtype=float) \
        * (0.5 * resonant_cross_section(cfg.lambda_brg)) * line_response(delta_brg, cfg)
    if out.ndim == 0:
        return complex(out)
    return out


def cross_section(delta_brg, cfg: AtomResponseConfig):
    """sigma0 * sum_F s_F / (1 + 4 (delta-delta_F)^2/Gamma^2), the absorption
    cross section, as -sigma0 * Im(line_response): the line shape of Im(zeta)."""
    out = -resonant_cross_section(cfg.lambda_brg) * line_response(delta_brg, cfg).imag
    if out.ndim == 0:
        return float(out)
    return out
