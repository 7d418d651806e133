"""Transfer-matrix engine: 2x2 chain products, scattering amplitudes, fields.

Matrices act on (E+, E-) forward/backward amplitude pairs and are stored as
complex ndarrays of shape (..., 2, 2); leading axes broadcast over detuning
grids so a whole spectrum is one chain traversal.  A point layer of strength
zeta contributes

    A = [[1 + i*zeta, i*zeta], [-i*zeta, 1 - i*zeta]]

and a gap dz contributes the diagonal phase exp(+-i k_brg dz cos beta).  Both
factors are unimodular, so det M = 1 along any chain.

The chain product is accumulated left to right, first slab first; with the
amplitude extraction r = M12/M22, t = 1/M22 this yields the reflection and
transmission for a probe entering at slab index 0 with vacuum on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeGeometry
from .response import AtomResponseConfig, zeta

TransferMatrix = np.ndarray  # (..., 2, 2) complex

OVERFLOW_LIMIT = 1e12


class EngineError(RuntimeError):
    pass


class OverflowGuardError(EngineError):
    """Matrix elements exceeded the overflow guard (unphysical gain)."""


class SingularMatrixError(EngineError):
    """M22 vanished; no scattering solution."""


@dataclass(frozen=True)
class SlabChain:
    """Ordered sequence of point layers, each followed by a vacuum gap.

    `surface_density` (1/m^2), `stark_shift` (rad/s, local resonance offset)
    and `gap_after` (m) describe one period; the physical chain is that
    sequence repeated `periods` times.  Strictly periodic chains therefore
    keep their fast matrix-power path without further bookkeeping.
    """

    surface_density: np.ndarray
    stark_shift: np.ndarray
    gap_after: np.ndarray
    periods: int = 1

    def __post_init__(self):
        sd = np.atleast_1d(np.asarray(self.surface_density, dtype=float))
        st = np.atleast_1d(np.asarray(self.stark_shift, dtype=float))
        gp = np.atleast_1d(np.asarray(self.gap_after, dtype=float))
        if not (sd.shape == st.shape == gp.shape) or sd.ndim != 1:
            raise ValueError("slab arrays must be 1D and of equal length")
        if np.any(sd < 0.0):
            raise ValueError("surface densities must be non-negative")
        if np.any(gp < 0.0):
            raise ValueError("gaps must be non-negative")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        object.__setattr__(self, "surface_density", sd)
        object.__setattr__(self, "stark_shift", st)
        object.__setattr__(self, "gap_after", gp)

    @property
    def n_slabs(self) -> int:
        """Slabs per period."""
        return self.surface_density.size

    @property
    def total_slabs(self) -> int:
        return self.n_slabs * self.periods

    def repeated(self) -> "SlabChain":
        """Materialize the periodic repetition into a flat, periods=1 chain."""
        if self.periods == 1:
            return self
        return SlabChain(
            np.tile(self.surface_density, self.periods),
            np.tile(self.stark_shift, self.periods),
            np.tile(self.gap_after, self.periods),
        )

    def mirrored(self) -> "SlabChain":
        """The chain traversed from the far side.

        Slab order reverses and every interior gap moves with the slab pair it
        separates; the trailing gap stays trailing (it only shifts the overall
        reflection phase).
        """
        flat = self.repeated()
        gaps = np.concatenate([flat.gap_after[-2::-1], flat.gap_after[-1:]])
        return SlabChain(
            flat.surface_density[::-1].copy(),
            flat.stark_shift[::-1].copy(),
            gaps,
        )


def identity_matrix(shape=()) -> TransferMatrix:
    m = np.zeros(tuple(shape) + (2, 2), dtype=complex)
    m[..., 0, 0] = 1.0
    m[..., 1, 1] = 1.0
    return m


def layer_matrix(z) -> TransferMatrix:
    """Point-layer matrix for (possibly array-valued) strength zeta."""
    z = np.asarray(z, dtype=complex)
    iz = 1j * z
    m = np.empty(z.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = 1.0 + iz
    m[..., 0, 1] = iz
    m[..., 1, 0] = -iz
    m[..., 1, 1] = 1.0 - iz
    return m


def gap_matrix(dz: float, k_brg: float, beta_i: float) -> TransferMatrix:
    """Free propagation across dz: diagonal phase exp(+-i k_brg dz cos beta_i)."""
    if dz < 0.0:
        raise ValueError("gap length must be non-negative")
    phi = k_brg * dz * math.cos(beta_i)
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = np.exp(1j * phi)
    m[1, 1] = np.exp(-1j * phi)
    return m


def matmul2(a: TransferMatrix, b: TransferMatrix) -> TransferMatrix:
    """Broadcasting 2x2 product via the explicit formula.

    Written out elementwise so that grid chunks multiply bitwise identically
    to the full-array call (deterministic chunked sweeps).
    """
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def det2(m: TransferMatrix):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _check_overflow(m: TransferMatrix, where: str):
    peak = np.max(np.abs(m))
    if not np.isfinite(peak) or peak > OVERFLOW_LIMIT:
        raise OverflowGuardError(
            f"matrix element magnitude {peak:.3e} exceeds {OVERFLOW_LIMIT:.0e} "
            f"({where}); chain exhibits unphysical gain or ran away numerically"
        )


def matrix_power(m: TransferMatrix, n: int) -> TransferMatrix:
    """m**n by repeated squaring, with the overflow guard at every step."""
    if n < 0:
        raise ValueError("power must be non-negative")
    result = identity_matrix(m.shape[:-2])
    base = m
    k = n
    step = 0
    while k > 0:
        if k & 1:
            result = matmul2(result, base)
            _check_overflow(result, f"matrix_power accumulate, bit {step}")
        k >>= 1
        if k:
            base = matmul2(base, base)
            _check_overflow(base, f"matrix_power square, bit {step}")
        step += 1
    return result


def _slab_zetas(chain: SlabChain, delta_brg, cfg: AtomResponseConfig):
    """zeta of slab j at detuning delta - stark_shift_j; shape (n_slabs,) + grid."""
    delta = np.asarray(delta_brg, dtype=float)
    sd = chain.surface_density.reshape((-1,) + (1,) * delta.ndim)
    st = chain.stark_shift.reshape((-1,) + (1,) * delta.ndim)
    return zeta(sd, delta[None, ...] - st, cfg)


def unit_cell_matrix(chain: SlabChain, delta_brg, cfg: AtomResponseConfig,
                     geom: LatticeGeometry) -> TransferMatrix:
    """Ordered product of layer and gap matrices over one period of the chain.

    `delta_brg` may be a scalar or a grid; grid axes lead the 2x2 axes of the
    result.
    """
    delta = np.asarray(delta_brg, dtype=float)
    m = identity_matrix(delta.shape)
    if chain.n_slabs == 0:
        return m
    zs = _slab_zetas(chain, delta, cfg)
    for j in range(chain.n_slabs):
        m = matmul2(m, layer_matrix(zs[j]))
        g = chain.gap_after[j]
        if g > 0.0:
            m = matmul2(m, gap_matrix(g, geom.k_brg, geom.beta_i))
        _check_overflow(m, f"slab {j}")
    return m


def chain_matrix(chain: SlabChain, delta_brg, cfg: AtomResponseConfig,
                 geom: LatticeGeometry) -> TransferMatrix:
    """Total transfer matrix of the chain (all periods)."""
    cell = unit_cell_matrix(chain, delta_brg, cfg, geom)
    if chain.periods == 1:
        return cell
    return matrix_power(cell, chain.periods)


@dataclass(frozen=True)
class ScatterResult:
    """Amplitudes and coefficients extracted from a chain matrix.

    big_a is defined as 1 - big_r - big_t, so the three always sum to one
    exactly; for passive chains big_a >= 0 up to rounding.
    """

    r: complex
    t: complex
    big_r: float
    big_t: float
    big_a: float
    phi: float


def scatter(m: TransferMatrix):
    """r = M12/M22, t = 1/M22 and the derived coefficients R, T, A, phi.

    Scalar input yields a ScatterResult; an (..., 2, 2) stack yields a
    ScatterResult of arrays.
    """
    m22 = m[..., 1, 1]
    if np.any(np.abs(m22) < 1e-300):
        raise SingularMatrixError("M22 ~ 0: scattering amplitudes undefined")
    r = m[..., 0, 1] / m22
    t = 1.0 / m22
    big_r = np.abs(r) ** 2
    big_t = np.abs(t) ** 2
    big_a = 1.0 - (big_r + big_t)
    phi = np.arctan2(r.imag, r.real)
    if m.ndim == 2:
        return ScatterResult(complex(r), complex(t), float(big_r),
                             float(big_t), float(big_a), float(phi))
    return ScatterResult(r, t, big_r, big_t, big_a, phi)


def field_profile(chain: SlabChain, delta_brg: float, samples_per_gap: int,
                  cfg: AtomResponseConfig, geom: LatticeGeometry):
    """Standing-wave intensity |E+ e^{i k_z z} + E- e^{-i k_z z}|^2 along z.

    Boundary conditions: unit amplitude incident from the left, nothing
    incoming from the right; k_z = k_brg cos beta_i.  Intensity is normalized
    to the incident beam, so the first sample equals |1 + r|^2 and the last
    equals |t|^2.  Returns (z, intensity) arrays with `samples_per_gap`
    points per gap.
    """
    if samples_per_gap < 2:
        raise ValueError("samples_per_gap must be >= 2")
    flat = chain.repeated()
    res = scatter(chain_matrix(flat, float(delta_brg), cfg, geom))
    k_z = geom.k_brg * math.cos(geom.beta_i)

    e_plus = 1.0 + 0.0j
    e_minus = res.r
    zs = [np.array([0.0])]
    intensity = [np.array([abs(e_plus + e_minus) ** 2])]
    z0 = 0.0
    if flat.n_slabs > 0:
        slab_z = zeta(flat.surface_density,
                      float(delta_brg) - flat.stark_shift, cfg)
        slab_z = np.atleast_1d(slab_z)
        fractions = np.arange(1, samples_per_gap + 1) / samples_per_gap
        for j in range(flat.n_slabs):
            iz = 1j * slab_z[j]
            e_plus, e_minus = ((1.0 + iz) * e_plus + iz * e_minus,
                               -iz * e_plus + (1.0 - iz) * e_minus)
            if max(abs(e_plus), abs(e_minus)) > OVERFLOW_LIMIT:
                raise OverflowGuardError(f"field amplitudes diverged at slab {j}")
            g = flat.gap_after[j]
            if g > 0.0:
                s = fractions * g
                phase = np.exp(1j * k_z * s)
                field = e_plus * phase + e_minus / phase
                zs.append(z0 + s)
                intensity.append(np.abs(field) ** 2)
                e_plus = e_plus * phase[-1]
                e_minus = e_minus / phase[-1]
                z0 += g
    return np.concatenate(zs), np.concatenate(intensity)


def bloch_phase(unit_cell: TransferMatrix):
    """Bloch phase theta per cell: cos(theta) = Tr(M)/2, branch with Im >= 0.

    Real theta means a propagating band; Im(theta) > 0 an evanescent stop
    band.  The representative is chosen so Re(theta) stays inside the first
    Brillouin zone near the relevant band edge.
    """
    d = det2(unit_cell)
    if np.any(np.abs(d - 1.0) > 1e-9):
        raise ValueError("unit cell must be unimodular (det = 1 within 1e-9)")
    w = 0.5 * (unit_cell[..., 0, 0] + unit_cell[..., 1, 1])
    theta = np.arccos(np.asarray(w, dtype=complex))
    flip = theta.imag < 0.0
    theta = np.where(flip & (theta.real > 0.5 * math.pi), 2.0 * math.pi - theta,
                     np.where(flip, -theta, theta))
    if unit_cell.ndim == 2:
        return complex(theta)
    return theta


def density_of_states(delta_grid, theta, gap_tol: float = 1e-9):
    """Relative density of optical states, |d Re(theta) / d delta|.

    Computed by central finite differences on a uniform detuning grid; set to
    zero wherever Im(theta) > gap_tol (inside a stop band).  Warns when the
    grid is too coarse to trust the derivative.
    """
    delta = np.asarray(delta_grid, dtype=float)
    theta = np.asarray(theta, dtype=complex)
    if delta.ndim != 1 or delta.shape != theta.shape:
        raise ValueError("delta_grid and theta must be matching 1D arrays")
    if delta.size < 3:
        raise ValueError("need at least 3 grid points")
    steps = np.diff(delta)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise ValueError("detuning grid must be uniform")
    re = theta.real
    if np.any(np.abs(np.diff(re)) > math.pi / 4.0):
        import warnings

        warnings.warn("Re(theta) jumps exceed pi/4 between grid points; "
                      "the detuning grid is too coarse", stacklevel=2)
    rho = np.abs(np.gradient(re, delta))
    rho[theta.imag > gap_tol] = 0.0
    return rho
