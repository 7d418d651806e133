"""Lattice geometry: closed-form geometric and thermal relations.

All quantities are SI internally.  Trap depths, detunings and linewidths are
angular frequencies (rad/s); temperatures are kelvin; lengths are meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

hbar = 1.0545718176461565e-34  # J s: h / 2 pi with the exact SI value of h
k_B = 1.380649e-23  # J/K: exact SI value


def bragg_angle(lambda_brg: float, lambda_dip: float) -> float:
    """Incidence angle arccos(lambda_brg/lambda_dip) that matches the lattice.

    Raises ValueError when lambda_brg > lambda_dip (no real angle exists).
    """
    if not 0.0 < lambda_brg <= lambda_dip:
        raise ValueError(
            f"need 0 < lambda_brg <= lambda_dip, got {lambda_brg=} {lambda_dip=}"
        )
    return math.acos(lambda_brg / lambda_dip)


def lattice_mismatch(lambda_dip: float, lambda_brg: float, beta_i: float) -> float:
    """Signed lattice-constant mismatch lambda_dip - lambda_brg/cos(beta_i).

    Zero exactly when beta_i equals bragg_angle(lambda_brg, lambda_dip).
    """
    c = math.cos(beta_i)
    if c <= 0.0:
        raise ValueError(f"cos(beta_i) must be positive, got beta_i={beta_i}")
    return lambda_dip - lambda_brg / c


def axial_width(T: float, U0: float, lambda_dip: float) -> float:
    """Axial rms half-width sigma_z of one trapped cloud.

    Harmonic-well result 2*sigma_z = (lambda_dip/pi) * sqrt(k_B T / (2 hbar U0)),
    with U0 the (positive) trap depth in rad/s.
    """
    if U0 <= 0.0:
        raise ValueError("U0 must be positive")
    if T < 0.0:
        raise ValueError("T must be non-negative")
    return lambda_dip / (2.0 * math.pi) * math.sqrt(k_B * T / (2.0 * hbar * U0))


def radial_width(T: float, U0: float, w_dip: float) -> float:
    """Radial rms half-width sigma_r: 2*sigma_r = w_dip * sqrt(k_B T / hbar U0)."""
    if U0 <= 0.0:
        raise ValueError("U0 must be positive")
    if T < 0.0:
        raise ValueError("T must be non-negative")
    return 0.5 * w_dip * math.sqrt(k_B * T / (hbar * U0))


def debye_waller(sigma_z: float, k_dip: float) -> float:
    """Coherent-scattering reduction factor exp(-2 k_dip^2 sigma_z^2), in (0, 1]."""
    if sigma_z < 0.0:
        raise ValueError("sigma_z must be non-negative")
    return math.exp(-2.0 * (k_dip * sigma_z) ** 2)


def effective_layers(sigma_r: float, lambda_dip: float, beta_i: float) -> float:
    """Number of layers 2*sigma_r/(lambda_dip tan beta_i) the beam can traverse.

    The radial cloud size limits how many times a beam entering at beta_i can
    bounce between layers.  Returns +inf at beta_i = 0 (collinear probe).
    """
    if not 0.0 <= beta_i < math.pi / 2.0:
        raise ValueError("beta_i must lie in [0, pi/2)")
    t = math.tan(beta_i)
    if t == 0.0:
        return math.inf
    return 2.0 * sigma_r / (lambda_dip * t)


def penetration_depth(n: float, f_dw: float, sigma_abs: float) -> float:
    """1/e attenuation length 1/(sigma_abs * n * (1 - f_dw)) of the probe.

    Only the disordered fraction (1 - f_dw) of the cloud absorbs diffusely.
    Returns +inf when there are no disordered atoms.
    """
    if not 0.0 <= f_dw <= 1.0:
        raise ValueError("f_dw must lie in [0, 1]")
    if n < 0.0 or sigma_abs <= 0.0:
        raise ValueError("need n >= 0 and sigma_abs > 0")
    loss = sigma_abs * n * (1.0 - f_dw)
    if loss == 0.0:
        return math.inf
    return 1.0 / loss


def penetration_layers(n: float, f_dw: float, sigma_abs: float, lambda_brg: float) -> float:
    """Effective layer count 2*z_pd/lambda_brg set by diffuse absorption."""
    z_pd = penetration_depth(n, f_dw, sigma_abs)
    if math.isinf(z_pd):
        return math.inf
    return 2.0 * z_pd / lambda_brg


def temperature_for_depth_fraction(fraction: float, U0: float) -> float:
    """Temperature in kelvin such that k_B*T = fraction * hbar*U0."""
    return fraction * hbar * U0 / k_B


@dataclass(frozen=True)
class DerivedGeometry:
    """Thermal/geometric quantities computed from a LatticeGeometry."""

    sigma_z: float
    sigma_r: float
    f_dw: float
    n_s: float


@dataclass(frozen=True)
class LatticeGeometry:
    """Static description of the standing-wave trap and the probe beam.

    U0 is stored as a positive depth in rad/s; how the sign of the potential
    enters the Boltzmann weights and Stark shifts is decided by the chain
    builders, not here.
    """

    lambda_dip: float
    lambda_brg: float
    beta_i: float
    U0: float
    T: float
    w_dip: float

    def __post_init__(self):
        if not 0.0 < self.lambda_brg <= self.lambda_dip:
            raise ValueError("need 0 < lambda_brg <= lambda_dip")
        if not 0.0 <= self.beta_i < math.pi / 2.0:
            raise ValueError("beta_i must lie in [0, pi/2)")
        if not self.U0 > 0.0:
            raise ValueError("U0 must be positive")
        if not self.T >= 0.0:
            raise ValueError("T must be non-negative")
        if not self.w_dip > 0.0:
            raise ValueError("w_dip must be positive")

    @property
    def k_dip(self) -> float:
        return 2.0 * math.pi / self.lambda_dip

    @property
    def k_brg(self) -> float:
        return 2.0 * math.pi / self.lambda_brg

    @property
    def delta_lambda_dip(self) -> float:
        return lattice_mismatch(self.lambda_dip, self.lambda_brg, self.beta_i)

    def with_lattice_mismatch(self, delta_lambda: float) -> "LatticeGeometry":
        """Copy with lambda_dip offset by delta_lambda from the Bragg-matched value."""
        matched = self.lambda_brg / math.cos(self.beta_i)
        return replace(self, lambda_dip=matched + delta_lambda)

    def derived(self) -> DerivedGeometry:
        sigma_z = axial_width(self.T, self.U0, self.lambda_dip)
        sigma_r = radial_width(self.T, self.U0, self.w_dip)
        return DerivedGeometry(
            sigma_z=sigma_z,
            sigma_r=sigma_r,
            f_dw=debye_waller(sigma_z, self.k_dip),
            n_s=effective_layers(sigma_r, self.lambda_dip, self.beta_i),
        )


def bragg_matched_geometry(*, U0: float = None, T: float = None) -> LatticeGeometry:
    """Geometry with beta_i set on the Bragg condition for the two wavelengths.

    The reference setup: 810/780 nm, U0 = k_B*500uK/hbar,
    k_B*T = 0.4*hbar*U0, a 220 um trap waist.
    """
    if U0 is None:
        U0 = k_B * 500e-6 / hbar
    if T is None:
        T = temperature_for_depth_fraction(0.4, U0)
    return LatticeGeometry(
        lambda_dip=810e-9,
        lambda_brg=780e-9,
        beta_i=bragg_angle(780e-9, 810e-9),
        U0=U0,
        T=T,
        w_dip=220e-6,
    )
