"""High-level scans, detected-power mapping and the boundary-value oracle.

Spectra are computed on detuning grids expressed in units of the linewidth.
Wide grids are swept in chunks of GRID_CHUNK points, which keeps the
(chunk, 2, 2) matrix stacks in cache, on one thread per usable CPU; each chunk
writes its slice of outputs allocated once.  The per-point arithmetic is
elementwise, so neither chunk boundaries nor threads change a single bit of
the output.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .engine import EngineError, ScatterResult, SlabChain, chain_matrix, \
    require_finite, require_int, require_scalar, scatter, unit_cell_matrix, \
    bloch_phase, density_of_states
from .geometry import LatticeGeometry
from .models import two_component_lattice
from .response import AtomResponseConfig, zeta

DEFAULT_GRID = (-40.0, 15.0, 1101)
FILLED_PERIODS = 10_000  # antinodes populated in the reference trap
# ~635 B of peak RSS per slab: one default-cell solve takes a fresh process's
# ru_maxrss from 57 MB to 85/187/211 MB at 42k/210k/250k slabs (2-vCPU x86-64)
ORACLE_MAX_SLABS = 250_000
GRID_CHUNK = 8192  # grid points per engine call in a sweep


def detuning_grid(start: float = DEFAULT_GRID[0], stop: float = DEFAULT_GRID[1],
                  points: int = DEFAULT_GRID[2]) -> np.ndarray:
    """Uniform detuning grid in units of the linewidth."""
    points = require_int("points", points)
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


def usable_cpus() -> int:
    """CPUs this process may run on (1 where the OS does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _chunked(fn, delta: np.ndarray) -> tuple:
    """fn over a detuning grid in slices of at most GRID_CHUNK points.

    fn returns a tuple of arrays, elementwise over the grid, and so does
    _chunked.  Scalar, short and multi-dimensional grids are one call.
    Otherwise chunk 0 runs first; its results fix the dtypes of the
    whole-grid outputs, allocated once, and every chunk writes its slice of
    them.  The other chunks go to the calling thread and usable_cpus() - 1
    helper threads, which pull chunk starts from one shared iterator (on one
    CPU: the calling thread alone, in grid order).  So the result carries the
    bits of fn(delta).  Of the chunks that fail, the one of the lowest start
    raises, and an EngineError names its index in the whole grid; a helper
    keeps whatever fn raises, so no unwritten slice is returned.  An
    interrupt of the calling thread stops every thread and propagates.
    """
    size = GRID_CHUNK
    if delta.ndim != 1 or delta.size <= size:
        return fn(delta)
    first = fn(delta[:size])
    out = tuple(np.empty((delta.size,) + c.shape[1:], dtype=c.dtype) for c in first)
    for o, c in zip(out, first):
        o[:size] = c
    starts, lock = iter(range(size, delta.size, size)), threading.Lock()
    errors = {}  # chunk start -> exception; any entry stops every thread

    def sweep(caught):
        while not errors:
            with lock:
                i = next(starts, None)
            if i is None:
                return
            try:
                for o, c in zip(out, fn(delta[i:i + size])):
                    o[i:i + size] = c
            except caught as exc:
                errors[i] = exc
                return

    helpers = [threading.Thread(target=sweep, args=(BaseException,))
               for _ in range(usable_cpus() - 1)]
    for t in helpers:
        t.start()
    try:
        sweep(Exception)
    except BaseException:  # an interrupt: no thread takes a new chunk
        errors[-1] = None
        raise
    finally:
        for t in helpers:
            t.join()
    if errors:
        i = min(errors)
        exc = errors[i]
        if isinstance(exc, EngineError) and exc.index is not None:
            raise type(exc)(exc.reason, i + exc.index) from None
        raise exc
    return out


def _scattered(chain: SlabChain, delta, cfg: AtomResponseConfig,
               geom: LatticeGeometry) -> tuple:
    """(r, t, R, T, A, phi) of the chain at the given detunings (rad/s)."""
    res = scatter(chain_matrix(chain, delta, cfg, geom))
    return res.r, res.t, res.big_r, res.big_t, res.big_a, res.phi


def sweep_scatter(chain: SlabChain, delta: np.ndarray, cfg: AtomResponseConfig,
                  geom: LatticeGeometry) -> ScatterResult:
    """Scatter coefficients over a detuning grid (rad/s), swept by _chunked.

    The ScatterResult is built from the six swept columns; it has the bits
    of scatter(chain_matrix(...)) on the whole grid.  A non-finite detuning
    is reported by its index in the whole grid.
    """
    return ScatterResult(*_chunked(lambda d: _scattered(chain, d, cfg, geom),
                                   require_finite("delta_brg", delta)))


def spectrum(chain: SlabChain, delta_over_gamma, cfg: AtomResponseConfig,
             geom: LatticeGeometry, metadata: dict | None = None) -> SpectrumTable:
    """R, T, A and phi per grid point, tabulated with run metadata.

    Swept by _chunked like sweep_scatter, with the same bits, but only the
    four real columns are kept: no grid-sized complex r and t.
    """
    grid = np.asarray(delta_over_gamma, dtype=float)
    if grid.size == 0:
        raise ValueError("empty detuning grid")
    cols = _chunked(lambda d: _scattered(chain, d, cfg, geom)[2:],
                    require_finite("delta_brg", grid * cfg.gamma))
    meta = {
        "engine_version": __version__,
        "n_slabs_per_period": str(chain.n_slabs),
        "periods": str(chain.periods),
        "lambda_dip_nm": f"{geom.lambda_dip * 1e9:.6f}",
        "lambda_brg_nm": f"{geom.lambda_brg * 1e9:.6f}",
        "beta_i_deg": f"{math.degrees(geom.beta_i):.6f}",
    }
    if metadata:
        meta.update(metadata)
    return SpectrumTable(grid, *map(np.atleast_1d, cols), meta)


def atom_number_to_density(n_atoms: float, geom: LatticeGeometry) -> float:
    """Mean density of N atoms spread over the filled antinodes.

    Convention: FILLED_PERIODS wells of thickness lambda_dip/2 and Gaussian
    radial area 2*pi*sigma_r^2.
    """
    sigma_r = geom.derived().sigma_r
    volume = FILLED_PERIODS * (geom.lambda_dip / 2.0) * 2.0 * math.pi * sigma_r**2
    if volume == 0.0:
        raise ValueError(f"the cloud has zero volume: its radial width sigma_r = "
                         f"{sigma_r!r} m (T = {geom.T!r} K) squares to 0")
    return n_atoms / volume


def saturation_scan(atom_numbers, geom: LatticeGeometry, cfg: AtomResponseConfig,
                    n_s: int = 400, f_dw: float = 0.2, n_ss: int = 10,
                    delta_over_gamma=None):
    """Peak reflection versus atom number for a fixed trap geometry.

    Returns (atom_numbers, max_R) arrays; the two-component disorder model is
    used with the given layer count and Debye-Waller factor.
    """
    numbers = require_finite("atom_numbers", atom_numbers)
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
    for dl in require_finite("delta_lambda_values", delta_lambda_values):
        geom = base_geom.with_lattice_mismatch(float(dl))
        chain = build_chain(geom)
        tables.append(spectrum(chain, delta_over_gamma, cfg, geom,
                               metadata={"delta_lambda_nm": f"{dl * 1e9:.6g}",
                                         "label": f"dl={dl * 1e9:.3g} nm"}))
    return tables


def radial_average(n_peak: float, sigma_r: float, n_rings: int, build_chain,
                   delta_over_gamma, cfg: AtomResponseConfig,
                   geom: LatticeGeometry) -> SpectrumTable:
    """Area-weighted average of spectra over the Gaussian radial profile.

    The disk of radius 2.5*sigma_r is split into n_rings equal-area
    annuli; each ring contributes the spectrum computed at its inner-edge
    density n_peak * exp(-rho^2 / 2 sigma_r^2).  `build_chain(n)` maps a
    density to the model chain.  phi is the phase of the ring-averaged
    reflection amplitude sqrt(R_k) exp(i phi_k), not a mean of phases.
    """
    n_rings = require_int("n_rings", n_rings)
    if n_rings < 1:
        raise ValueError("n_rings must be >= 1")
    if not sigma_r > 0.0:
        raise ValueError(f"sigma_r must be positive (inf for a uniform cloud), "
                         f"got {sigma_r!r}")
    grid = np.asarray(delta_over_gamma, dtype=float)
    acc = None
    r_sum = 0.0
    for k in range(n_rings):
        density = n_peak if not math.isfinite(sigma_r) else \
            n_peak * math.exp(-3.125 * k / n_rings)  # rho = 2.5 sigma_r sqrt(k / n)
        table = spectrum(build_chain(density), grid, cfg, geom)
        cols = np.stack([table.R, table.T, table.A])
        acc = cols if acc is None else acc + cols
        r_sum = r_sum + np.sqrt(table.R) * np.exp(1j * table.phi)
    acc /= n_rings
    phi = np.where(r_sum == 0.0, 0.0, np.angle(r_sum))  # no phase at r = 0
    return SpectrumTable(grid, acc[0], acc[1], acc[2], phi,
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
    by chaining slabs, so it cross-checks the engine.  The band is filled
    with array slices, one per diagonal.
    """
    from scipy.linalg import solve_banded  # only the oracle needs scipy

    delta = require_scalar("delta_brg", delta_brg)
    n = chain.total_slabs
    if n > ORACLE_MAX_SLABS:  # checked before the chain is tiled
        raise OracleError(f"boundary-value oracle limited to {ORACLE_MAX_SLABS} "
                          f"slabs, got {n}")
    if n == 0:
        return 0.0 + 0.0j, 1.0 + 0.0j
    flat = chain.repeated()
    zs = np.atleast_1d(zeta(flat.surface_density,
                            delta - flat.stark_shift, cfg))
    k_z = geom.k_brg * math.cos(geom.beta_i)
    # phase advance across the gap *preceding* slab j (none before slab 0)
    phases = np.ones(n, dtype=complex)
    phases[1:] = np.exp(1j * k_z * flat.gap_after[:-1])

    iz = 1j * zs
    if not np.all(np.isfinite(iz)):
        bad = int(np.argmax(~np.isfinite(iz)))
        raise OracleError(f"non-finite layer response at slab {bad}")

    # unknown vector x = [b_0, a_1, b_1, ..., a_{n-1}, b_{n-1}, a_n]; slab j
    # gives rows 2j and 2j+1:
    #   a_{j+1} = (1+iz) ph a_j + iz b_j / ph
    #   b_{j+1} = -iz ph a_j + (1-iz) b_j / ph
    # with a_0 = 1 moved to the RHS and b_n = 0.  Row i, column k is stored
    # at ab[upper + i - k, k]: a_j is column 2j-1, b_j column 2j.
    size = 2 * n
    lower = upper = 2
    ab = np.zeros((lower + upper + 1, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    ab[3, 1:-1:2] = -(1.0 + iz[1:]) * phases[1:]  # a_j in row 2j, j >= 1
    ab[4, 1:-1:2] = iz[1:] * phases[1:]           # a_j in row 2j+1
    ab[2, 0::2] = -iz / phases                    # b_j in row 2j
    ab[3, 0::2] = -(1.0 - iz) / phases            # b_j in row 2j+1
    ab[1, 1::2] = 1.0                             # a_{j+1} in row 2j
    ab[1, 2::2] = 1.0                             # b_{j+1} in row 2j+1, j < n-1
    rhs[0] = (1.0 + iz[0]) * phases[0]
    rhs[1] = -iz[0] * phases[0]

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

    Swept by _chunked as a one-column tuple, with the bits of the whole-grid
    bloch_phase(unit_cell_matrix(...)).  The arccos branch is fixed by
    continuity along the scan (real part unwrapped, Im theta >= 0).  Returns
    (theta, rho) arrays.
    """
    grid = np.asarray(delta_over_gamma, dtype=float)
    theta = np.atleast_1d(_chunked(
        lambda d: (bloch_phase(unit_cell_matrix(chain, d, cfg, geom)),),
        require_finite("delta_brg", grid * cfg.gamma))[0])
    theta = np.unwrap(theta.real) + 1j * theta.imag
    rho = density_of_states(grid, theta)
    return theta, rho


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of the runs of equal samples higher than both neighbours.

    A run touching either edge is no maximum, and the midpoint of an even
    run rounds down, as in scipy.signal.find_peaks.
    """
    starts = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    ends = np.append(starts[1:], x.size) - 1
    inner = (starts > 0) & (ends < x.size - 1)
    s, e = starts[inner], ends[inner]
    peak = (x[s - 1] < x[s]) & (x[e + 1] < x[e])
    return (s[peak] + e[peak]) // 2


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Height of each peak over the higher of its two bases, for NaN-free x.

    A base is the lowest sample between the peak and the nearest strictly
    higher sample on its side, or the edge: the definition of
    scipy.signal.peak_prominences without a window, one scan of x per peak.
    """
    out = np.empty(peaks.size)
    for k, p in enumerate(peaks):
        higher = np.flatnonzero(x > x[p])
        lo = higher[higher < p].max(initial=-1) + 1
        hi = higher[higher > p].min(initial=x.size)
        out[k] = x[p] - max(x[lo:p + 1].min(), x[p:hi].min())
    return out


def reflection_minima(delta_over_gamma, big_r, prominence: float = 1e-3,
                      window=None):
    """Indices of local minima of R with at least the given prominence.

    For R without NaN the indices are those of
    scipy.signal.find_peaks(-R, prominence=...): a minimum is lower than
    both neighbours (a plateau counts once, at its midpoint rounded down),
    and its prominence over its two bases is computed by its definition.
    `window` optionally restricts the search to delta/Gamma in [lo, hi].
    """
    grid = np.asarray(delta_over_gamma, dtype=float)
    x = -np.asarray(big_r, dtype=float)
    if grid.ndim != 1 or grid.shape != x.shape:
        raise ValueError("delta_over_gamma and big_r must be matching 1D arrays")
    idx = _local_maxima(x)
    idx = idx[_prominences(x, idx) >= prominence]
    if window is not None:
        lo, hi = window
        idx = idx[(grid[idx] >= lo) & (grid[idx] <= hi)]
    return idx
