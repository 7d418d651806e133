"""High-level scans, detected-power mapping and the boundary-value oracle.

Spectra are computed on detuning grids expressed in units of the linewidth.
Wide grids are swept serially in chunks of GRID_CHUNK points, which keeps the
(chunk, 2, 2) matrix stacks in cache; the per-point arithmetic is elementwise,
so chunk boundaries never change a single bit of the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import find_peaks

from . import __version__
from .engine import EngineError, ScatterResult, SlabChain, chain_matrix, \
    scatter, unit_cell_matrix, bloch_phase, density_of_states
from .geometry import LatticeGeometry
from .models import two_component_lattice
from .response import AtomResponseConfig, zeta

DEFAULT_GRID = (-40.0, 15.0, 1101)
FILLED_PERIODS = 10_000  # antinodes populated in the reference trap
GRID_CHUNK = 4096  # grid points per engine call in a sweep


def detuning_grid(start: float = DEFAULT_GRID[0], stop: float = DEFAULT_GRID[1],
                  points: int = DEFAULT_GRID[2]) -> np.ndarray:
    """Uniform detuning grid in units of the linewidth."""
    if points < 1:
        raise ValueError("grid needs at least one point")
    return np.linspace(start, stop, points)


@dataclass
class SpectrumTable:
    """Sampled (delta/Gamma -> R, T, A, phi) records plus run metadata."""

    delta_over_gamma: np.ndarray
    R: np.ndarray
    T: np.ndarray
    A: np.ndarray
    phi: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.delta_over_gamma.size
        if not (self.R.size == self.T.size == self.A.size == self.phi.size == n):
            raise ValueError("column lengths disagree")
        if n > 1 and np.any(np.diff(self.delta_over_gamma) <= 0.0):
            raise ValueError("detuning grid must be strictly increasing")


def _located(fn, delta: np.ndarray, offset: int):
    """fn(delta); an EngineError is re-raised naming the first failing point.

    Only this slice is re-evaluated, point by point; `offset` is the global
    grid index of its first point.
    """
    try:
        return fn(delta)
    except EngineError as exc:
        for i, d in enumerate(np.atleast_1d(delta), offset):
            try:
                fn(d)
            except EngineError:
                raise type(exc)(
                    f"{exc} [first failing grid point: index {i}, "
                    f"delta = {d:.6g} rad/s]") from exc
        raise


def _chunked(fn, delta: np.ndarray):
    """fn over a detuning grid in slices of at most GRID_CHUNK points.

    fn is elementwise over the grid, so the parts joined in grid order carry
    the same bits as fn(delta).  Scalar, short and multi-dimensional grids
    are one call.
    """
    if delta.ndim != 1 or delta.size <= GRID_CHUNK:
        return _located(fn, delta, 0)
    parts = [_located(fn, delta[i:i + GRID_CHUNK], i)
             for i in range(0, delta.size, GRID_CHUNK)]
    if isinstance(parts[0], ScatterResult):
        return ScatterResult(*[np.concatenate([getattr(p, f.name) for p in parts])
                               for f in fields(ScatterResult)])
    return np.concatenate(parts)


def sweep_scatter(chain: SlabChain, delta: np.ndarray, cfg: AtomResponseConfig,
                  geom: LatticeGeometry) -> ScatterResult:
    """Scatter coefficients over a detuning grid (rad/s), swept in chunks.

    Engine failures are re-reported with the offending grid point.
    """
    return _chunked(lambda d: scatter(chain_matrix(chain, d, cfg, geom)),
                    np.asarray(delta, dtype=float))


def spectrum(chain: SlabChain, delta_over_gamma, cfg: AtomResponseConfig,
             geom: LatticeGeometry, metadata: dict | None = None) -> SpectrumTable:
    """One ScatterResult per grid point, tabulated with run metadata."""
    grid = np.asarray(delta_over_gamma, dtype=float)
    if grid.size == 0:
        raise ValueError("empty detuning grid")
    res = sweep_scatter(chain, grid * cfg.gamma, cfg, geom)
    meta = {
        "engine_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n_slabs_per_period": str(chain.n_slabs),
        "periods": str(chain.periods),
        "lambda_dip_nm": f"{geom.lambda_dip * 1e9:.6f}",
        "lambda_brg_nm": f"{geom.lambda_brg * 1e9:.6f}",
        "beta_i_deg": f"{math.degrees(geom.beta_i):.6f}",
    }
    if metadata:
        meta.update(metadata)
    return SpectrumTable(grid, np.atleast_1d(res.big_r), np.atleast_1d(res.big_t),
                         np.atleast_1d(res.big_a), np.atleast_1d(res.phi), meta)


def atom_number_to_density(n_atoms: float, geom: LatticeGeometry,
                           filled_periods: int = FILLED_PERIODS) -> float:
    """Mean density of N atoms spread over the filled antinodes.

    Convention: filled_periods wells of thickness lambda_dip/2 and Gaussian
    radial area 2*pi*sigma_r^2.
    """
    sigma_r = geom.derived().sigma_r
    volume = filled_periods * (geom.lambda_dip / 2.0) * 2.0 * math.pi * sigma_r**2
    return n_atoms / volume


def saturation_scan(atom_numbers, geom: LatticeGeometry, cfg: AtomResponseConfig,
                    n_s: int = 400, f_dw: float = 0.2, n_ss: int = 10,
                    delta_over_gamma=None):
    """Peak reflection versus atom number for a fixed trap geometry.

    Returns (atom_numbers, max_R) arrays; the two-component disorder model is
    used with the given layer count and Debye-Waller factor.
    """
    numbers = np.asarray(atom_numbers, dtype=float)
    if np.any(numbers < 0.0):
        raise ValueError("atom numbers must be non-negative")
    grid = detuning_grid() if delta_over_gamma is None else np.asarray(delta_over_gamma)
    max_r = np.empty(numbers.size)
    for i, n_atoms in enumerate(numbers):
        if n_atoms == 0.0:
            max_r[i] = 0.0
            continue
        density = atom_number_to_density(n_atoms, geom)
        chain = two_component_lattice(density, f_dw, n_s, n_ss, geom)
        res = sweep_scatter(chain, grid * cfg.gamma, cfg, geom)
        max_r[i] = float(np.max(res.big_r))
    return numbers, max_r


def lattice_constant_scan(delta_lambda_values, build_chain, delta_over_gamma,
                          cfg: AtomResponseConfig,
                          base_geom: LatticeGeometry) -> list[SpectrumTable]:
    """Family of spectra for lattice constants detuned off the Bragg condition.

    `build_chain(geom)` constructs the model chain for each adjusted geometry;
    the probe wavelength and the angle of incidence stay fixed while
    lambda_dip is offset by each requested mismatch.
    """
    tables = []
    for dl in np.asarray(delta_lambda_values, dtype=float):
        geom = base_geom.with_lattice_mismatch(float(dl))
        chain = build_chain(geom)
        tables.append(spectrum(chain, delta_over_gamma, cfg, geom,
                               metadata={"delta_lambda_nm": f"{dl * 1e9:.6g}",
                                         "label": f"dl={dl * 1e9:.3g} nm"}))
    return tables


def radial_average(n_peak: float, sigma_r: float, n_rings: int, build_chain,
                   delta_over_gamma, cfg: AtomResponseConfig,
                   geom: LatticeGeometry, radial_extent: float = 2.5) -> SpectrumTable:
    """Area-weighted average of spectra over the Gaussian radial profile.

    The disk of radius radial_extent*sigma_r is split into n_rings equal-area
    annuli; each ring contributes the spectrum computed at its inner-edge
    density n_peak * exp(-rho^2 / 2 sigma_r^2).  `build_chain(n)` maps a
    density to the model chain.  phi is the phase of the ring-averaged
    reflection amplitude sqrt(R_k) exp(i phi_k), not a mean of phases.
    """
    if n_rings < 1:
        raise ValueError("n_rings must be >= 1")
    grid = np.asarray(delta_over_gamma, dtype=float)
    rho_max = radial_extent * sigma_r
    acc = None
    r_sum = 0.0
    for k in range(n_rings):
        rho = rho_max * math.sqrt(k / n_rings)
        density = n_peak if not math.isfinite(sigma_r) else \
            n_peak * math.exp(-rho**2 / (2.0 * sigma_r**2))
        table = spectrum(build_chain(density), grid, cfg, geom)
        cols = np.stack([table.R, table.T, table.A])
        acc = cols if acc is None else acc + cols
        r_sum = r_sum + np.sqrt(table.R) * np.exp(1j * table.phi)
    acc /= n_rings
    return SpectrumTable(grid, acc[0], acc[1], acc[2], np.angle(r_sum),
                         metadata={"radial_rings": str(n_rings),
                                   "n_peak": f"{n_peak:.6g}"})


@dataclass(frozen=True)
class DetectorReading:
    """Powers on the three detectors for a partially overlapping probe."""

    p_r: float
    p_t: float
    p_a: float
    eta: float
    p_i: float


def detected_powers(result: ScatterResult, eta: float, p_i: float) -> DetectorReading:
    """Map (R, T, A) to detected powers with probe overlap fraction eta.

    P_r = R*eta*P_i, P_t = T*eta*P_i + (1-eta)*P_i, P_a = A*eta*P_i; the three
    always sum to P_i.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return DetectorReading(
        p_r=result.big_r * eta * p_i,
        p_t=result.big_t * eta * p_i + (1.0 - eta) * p_i,
        p_a=result.big_a * eta * p_i,
        eta=eta,
        p_i=p_i,
    )


class OracleError(RuntimeError):
    pass


def solve_boundary_value(chain: SlabChain, delta_brg: float,
                         cfg: AtomResponseConfig, geom: LatticeGeometry):
    """Independent (r, t) via the full banded linear system of amplitudes.

    Unknowns are the forward/backward amplitudes in every gap, each referenced
    at the left edge of its region.  The slab jump condition couples adjacent
    regions; boundary conditions are unit incoming amplitude from the left and
    zero incoming from the right.  Solved by banded Gaussian elimination, not
    by matrix chaining, so it cross-checks the transfer engine.
    """
    flat = chain.repeated()
    n = flat.n_slabs
    if n == 0:
        return 0.0 + 0.0j, 1.0 + 0.0j
    if n > 10_000:
        raise OracleError("boundary-value oracle limited to 10^4 slabs")
    zs = np.atleast_1d(zeta(flat.surface_density,
                            float(delta_brg) - flat.stark_shift, cfg))
    k_z = geom.k_brg * math.cos(geom.beta_i)
    # phase advance across the gap *preceding* slab j (none before slab 0)
    phases = np.ones(n, dtype=complex)
    phases[1:] = np.exp(1j * k_z * flat.gap_after[:-1])

    # unknown vector x = [b_0, a_1, b_1, ..., a_{n-1}, b_{n-1}, a_n]
    size = 2 * n
    lower = upper = 2
    ab = np.zeros((lower + upper + 1, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)

    def put(row, col, value):
        ab[upper + row - col, col] = value

    for j in range(n):
        iz = 1j * zs[j]
        ph = phases[j]
        if not np.isfinite(iz):
            raise OracleError(f"non-finite layer response at slab {j}")
        row_a, row_b = 2 * j, 2 * j + 1
        # a_{j+1} = (1+iz) ph a_j + iz b_j / ph ; b_{j+1} = -iz ph a_j + (1-iz) b_j / ph
        col_aj = 2 * j - 1   # a_j (absent for j = 0: folded into the RHS)
        col_bj = 2 * j       # b_j
        col_aj1 = 2 * j + 1  # a_{j+1}
        col_bj1 = 2 * j + 2  # b_{j+1} (absent for j = n-1: fixed to 0)
        if j == 0:
            rhs[row_a] += (1.0 + iz) * ph
            rhs[row_b] += -iz * ph
        else:
            put(row_a, col_aj, -(1.0 + iz) * ph)
            put(row_b, col_aj, iz * ph)
        put(row_a, col_bj, -iz / ph)
        put(row_b, col_bj, -(1.0 - iz) / ph)
        put(row_a, col_aj1, 1.0)
        if j < n - 1:
            put(row_b, col_bj1, 1.0)

    try:
        x = solve_banded((lower, upper), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise OracleError(f"singular boundary-value system: {exc}") from exc
    if not np.all(np.isfinite(x)):
        bad = int(np.argmax(~np.isfinite(x))) // 2
        raise OracleError(f"boundary-value solve failed near slab {bad}")
    r = complex(x[0])
    # transmitted amplitude referenced at the exit plane after the final gap
    t = complex(x[-1] * np.exp(1j * k_z * flat.gap_after[-1]))
    return r, t


def band_structure(chain: SlabChain, delta_over_gamma, cfg: AtomResponseConfig,
                   geom: LatticeGeometry):
    """Bloch phase theta(delta) of the chain's unit cell and the derived DOS.

    The arccos branch is fixed by continuity along the scan (real part
    unwrapped, Im theta >= 0).  Returns (theta, rho) arrays.
    """
    grid = np.asarray(delta_over_gamma, dtype=float)
    theta = np.atleast_1d(_chunked(
        lambda d: bloch_phase(unit_cell_matrix(chain, d, cfg, geom)),
        grid * cfg.gamma))
    theta = np.unwrap(theta.real) + 1j * theta.imag
    rho = density_of_states(grid, theta)
    return theta, rho


def reflection_minima(delta_over_gamma, big_r, prominence: float = 1e-3,
                      window=None):
    """Indices of local minima of R using a 3-point criterion plus prominence.

    `window` optionally restricts the search to delta/Gamma in [lo, hi].
    """
    grid = np.asarray(delta_over_gamma, dtype=float)
    r = np.asarray(big_r, dtype=float)
    idx, _ = find_peaks(-r, prominence=prominence)
    if window is not None:
        lo, hi = window
        idx = idx[(grid[idx] >= lo) & (grid[idx] <= hi)]
    return idx
