"""Chain builders: perfect, thermal-sequential and two-component lattices.

Every builder conserves atom number: the surface densities of one period sum
to n * lambda_dip / 2 regardless of temperature or sublayer count.

Sign conventions.  The standing-wave potential has period lambda_dip/2 and is
used in two roles:

* The Boltzmann weight uses the energy above the well bottom,
  U_above(z) = U0 sin^2(k_dip z) (or its harmonic expansion U0 k^2 z^2).
* The local Stark shift of the resonance uses the positive local depth
  U_depth(z) = U0 - U_above(z), clipped at zero, so atoms at the antinode get
  the full +U0 blue shift and the T -> 0 limit reproduces a perfect lattice
  spectrum translated by +U0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SlabChain
from .geometry import LatticeGeometry, hbar, k_B

POTENTIAL_FORMS = ("harmonic", "sinusoidal")


@dataclass(frozen=True)
class ThermalModelConfig:
    """Parameters of the sequential-density thermal lattice."""

    n: float            # mean volume density, 1/m^3
    n_s: int            # number of lattice periods
    n_ss: int           # sublayers per period
    T: float            # K
    U0: float           # trap depth, rad/s
    stark_enabled: bool = True
    potential_form: str = "harmonic"

    def __post_init__(self):
        if self.n < 0.0:
            raise ValueError("density must be non-negative")
        if self.n_s < 1 or self.n_ss < 1:
            raise ValueError("n_s and n_ss must be >= 1")
        if self.T < 0.0:
            raise ValueError("T must be non-negative")
        if self.potential_form not in POTENTIAL_FORMS:
            raise ValueError(f"potential_form must be one of {POTENTIAL_FORMS}")


def potential_above_minimum(z, U0: float, k_dip: float, form: str = "harmonic"):
    """Trap energy above the well bottom at offset z from the antinode, rad/s."""
    z = np.asarray(z, dtype=float)
    if form == "harmonic":
        u = U0 * (k_dip * z) ** 2
    elif form == "sinusoidal":
        u = U0 * np.sin(k_dip * z) ** 2
    else:
        raise ValueError(f"unknown potential form {form!r}")
    return u if u.ndim else float(u)


def local_depth(z, U0: float, k_dip: float, form: str = "harmonic"):
    """Positive local trap depth U0 - U_above, clipped at zero (rad/s)."""
    u = np.clip(U0 - np.asarray(potential_above_minimum(z, U0, k_dip, form)),
                0.0, None)
    return u if u.ndim else float(u)


def sublayer_positions(n_ss: int, lambda_dip: float) -> np.ndarray:
    """Midpoints of n_ss equal slices of one period, centered on the well."""
    dz = lambda_dip / (2.0 * n_ss)
    return -lambda_dip / 4.0 + (np.arange(n_ss) + 0.5) * dz


def perfect_lattice(n: float, n_s: int, geom: LatticeGeometry) -> SlabChain:
    """n_s identical layers of surface density n*lambda_dip/2, spaced lambda_dip/2."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    half = geom.lambda_dip / 2.0
    return SlabChain([n * half], [0.0], [half], periods=n_s)


def _boltzmann_weights(z, cfg: ThermalModelConfig, geom: LatticeGeometry):
    """exp(-(U_above(z) - U_low) / k_B T) at offsets z from the well, for
    T > 0, with U_low the lowest energy on the sublayer midpoints: the
    largest midpoint weight is 1, so their sum cannot underflow at any T."""
    kT = k_B * cfg.T / hbar  # thermal energy in rad/s
    low = np.min(potential_above_minimum(sublayer_positions(cfg.n_ss, geom.lambda_dip),
                                         cfg.U0, geom.k_dip, cfg.potential_form))
    u = potential_above_minimum(z, cfg.U0, geom.k_dip, cfg.potential_form)
    return np.exp(-(np.asarray(u) - low) / kT)


def local_density(z, cfg: ThermalModelConfig, geom: LatticeGeometry):
    """Boltzmann-weighted density inside one period at offset z from the well.

    Normalized on the same midpoint grid the chain builder uses, so that
    n_loc(z_nu) * dz over the n_ss sublayers sums to n*lambda_dip/2.  Requires
    T > 0; the frozen lattice is handled as a special case by
    sequential_lattice.
    """
    if cfg.T <= 0.0:
        raise ValueError("local_density needs T > 0; T = 0 is the "
                         "delta-concentration limit handled by the builder")
    grid = sublayer_positions(cfg.n_ss, geom.lambda_dip)
    dz = geom.lambda_dip / (2.0 * cfg.n_ss)
    norm = dz * float(np.sum(_boltzmann_weights(grid, cfg, geom)))
    out = cfg.n * (geom.lambda_dip / 2.0) * _boltzmann_weights(z, cfg, geom) / norm
    return out if out.ndim else float(out)


def sequential_lattice(cfg: ThermalModelConfig, geom: LatticeGeometry) -> SlabChain:
    """Thermal lattice: n_s periods of n_ss Boltzmann-weighted sublayers.

    Sublayer nu carries n*lambda_dip/2 * w_nu / sum(w), w the Boltzmann
    weights on the sublayer midpoints z_nu (no volume density, which could
    overflow), and, when stark_enabled, the local blue shift U_depth(z_nu).
    """
    dz = geom.lambda_dip / (2.0 * cfg.n_ss)
    grid = sublayer_positions(cfg.n_ss, geom.lambda_dip)
    if cfg.T == 0.0:
        sd = np.zeros(cfg.n_ss)
        sd[cfg.n_ss // 2] = cfg.n * (geom.lambda_dip / 2.0)
        stark = np.zeros(cfg.n_ss)
        if cfg.stark_enabled:
            stark[cfg.n_ss // 2] = cfg.U0
    else:
        w = _boltzmann_weights(grid, cfg, geom)
        sd = cfg.n * (geom.lambda_dip / 2.0) * w / float(np.sum(w))
        if cfg.stark_enabled:
            stark = local_depth(grid, cfg.U0, geom.k_dip, cfg.potential_form)
        else:
            stark = np.zeros(cfg.n_ss)
    gaps = np.full(cfg.n_ss, dz)
    return SlabChain(sd, stark, gaps, periods=cfg.n_s)


def two_component_lattice(n: float, f_dw: float, n_s: int, n_ss: int,
                          geom: LatticeGeometry) -> SlabChain:
    """Ordered lattice of density n*f_dw plus a homogeneous cloud n*(1-f_dw).

    Per period: one slab with surface density n*f_dw*lambda_dip/2 at the
    antinode, and n_ss evenly spaced sublayers sharing n*(1-f_dw)*lambda_dip/2.
    """
    if not 0.0 <= f_dw <= 1.0:
        raise ValueError("f_dw must lie in [0, 1]")
    if n_s < 1 or n_ss < 1:
        raise ValueError("n_s and n_ss must be >= 1")
    half = geom.lambda_dip / 2.0
    dz = half / n_ss
    sd = np.empty(n_ss + 1)
    sd[0] = n * f_dw * half
    sd[1:] = n * (1.0 - f_dw) * half / n_ss
    # ordered slab at the period start; uniform sublayers at slice midpoints
    gaps = np.empty(n_ss + 1)
    gaps[0] = dz / 2.0
    gaps[1:-1] = dz
    gaps[-1] = dz / 2.0
    stark = np.zeros(n_ss + 1)
    return SlabChain(sd, stark, gaps, periods=n_s)
