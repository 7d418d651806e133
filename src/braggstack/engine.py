"""Scattering-matrix engine: chain amplitudes, transfer matrices, fields.

A slab is a point layer of strength zeta followed by a vacuum gap dz.  With
q = 1/(1 - i*zeta) and g = exp(i k_z dz), k_z = k_brg cos beta, it scatters
as r = i*zeta*q, t = t' = g*q, r' = i*zeta*g^2*q (r, t from the left; r', t'
from the right).  Slabs compose by the Redheffer star product (Ko & Inkson,
PRB 38, 9945 (1988); L. Li, JOSA A 13, 1024 (1996)), which keeps every
amplitude of a passive chain bounded however opaque it is.  A grid is
scanned slab by slab, first slab first, on (r, t, U = 1 + r'), with
iz = i*zeta_j and g = g_j:

    w = 1/(1 - iz*U);  r += iz*t^2*w;  t = g*t*w;  U = 1 + g^2*(U*w - 1).

The scan walks the chain's runs of identical slabs first to last (_runs): a
run long enough that repeated squaring takes fewer steps than it has slabs
is stepped whole, as the star power of its slab's closed-form amplitudes
and one star product (the background sublayers of the two-component
model); every other slab takes the step above.  One rule covers
repetition: a chain is the star power of the shortest prefix that it
repeats whole (_period; a periodic chain written out flat repeats its
cell), and chain_matrix takes the star power of the cell over periods.  A
single detuning star-folds the closed-form slab amplitudes pairwise in
log2 numpy calls (_fold).  Field profiles take inclusive star scans by
doubling from both ends (Hillis & Steele, CACM 29, 1170 (1986)), at linear
work on a periodic chain: a round computes one period of columns and
copies the rest (_prefixes).  The public functions take and return 2x2
transfer matrices on (E+, E-) amplitude pairs, shape (..., 2, 2) with grid
axes leading: M22 = 1/t, M12 = r/t, M21 = -r'/t, M11 = t' - r*r'/t.  A
point layer is [[1 + i*zeta, i*zeta], [-i*zeta, 1 - i*zeta]] and a gap the
diagonal phase exp(+-i k_z dz), so det M = 1.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeGeometry
from .response import AtomResponseConfig, line_response, resonant_cross_section, zeta

TransferMatrix = np.ndarray  # (..., 2, 2) complex

# Grid elements of zeta per block of slabs in a grid scan: the (slab, grid)
# array of a whole chain is never built.  1 MB blocks (2^16) made a
# 12,600-slab scan 7-11% slower than 2^14.
ZETA_BLOCK = 1 << 14
# Field-profile samples per vectorized block: the default profile (12,600
# gaps of 64 samples) took ~22 ms at 2^13..2^15, 25-27 ms at 2^12 and
# 2^16..2^17, ~32 ms at 2^18 and above (out of cache) and ~39 ms at 2^10
# (best of 21, 2-vCPU VM).
PROFILE_BLOCK = 1 << 14


class EngineError(RuntimeError):
    """A result the engine cannot represent.  `index` is the first grid
    index where that happens, or None at a single detuning."""

    def __init__(self, reason: str, index=None):
        super().__init__(reason if index is None else f"{reason} at grid index {index}")
        self.reason, self.index = reason, index


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
        sd, st, gp = (np.atleast_1d(require_finite(f, getattr(self, f)))
                      for f in ("surface_density", "stark_shift", "gap_after"))
        if not (sd.shape == st.shape == gp.shape) or sd.ndim != 1:
            raise ValueError("slab arrays must be 1D and of equal length")
        if np.any(sd < 0.0):
            raise ValueError("surface densities must be non-negative")
        if np.any(gp < 0.0):
            raise ValueError("gaps must be non-negative")
        periods = require_int("periods", self.periods)
        if periods < 1:
            raise ValueError("periods must be >= 1")
        object.__setattr__(self, "periods", periods)
        for f, a in (("surface_density", sd), ("stark_shift", st), ("gap_after", gp)):
            object.__setattr__(self, f, a)

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
        return SlabChain(*(np.tile(a, self.periods) for a in
                           (self.surface_density, self.stark_shift, self.gap_after)))

    def mirrored(self) -> "SlabChain":
        """The chain traversed from the far side.

        Slab order reverses and every interior gap moves with the slab pair it
        separates; the trailing gap stays trailing (it only shifts the overall
        reflection phase).
        """
        flat = self.repeated()
        gaps = np.concatenate([flat.gap_after[-2::-1], flat.gap_after[-1:]])
        return SlabChain(flat.surface_density[::-1].copy(),
                         flat.stark_shift[::-1].copy(), gaps)


def identity_matrix(shape=()) -> TransferMatrix:
    m = np.zeros(tuple(shape) + (2, 2), dtype=complex)
    m[..., [0, 1], [0, 1]] = 1.0
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
    """Broadcasting 2x2 product via the explicit formula, elementwise."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def det2(m: TransferMatrix):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def require_finite(name: str, values) -> np.ndarray:
    """values as floats; a ValueError names `name` and the first non-finite."""
    a = np.asarray(values, dtype=float)
    bad = ~np.isfinite(a)
    if bad.any():
        index = tuple(map(int, np.unravel_index(int(np.argmax(bad)), a.shape)))
        where = f" at index {index[0] if a.ndim == 1 else index}" if a.ndim else ""
        raise ValueError(f"{name} must be finite: {a[index]}{where}")
    return a


def require_scalar(name: str, value) -> float:
    """value as a finite float; a TypeError names `name` if it is an array."""
    a = np.asarray(value, dtype=float)
    if a.ndim:
        raise TypeError(f"{name} must be a scalar, got an array of shape {a.shape}")
    return float(require_finite(name, a))


def require_int(name: str, value) -> int:
    """value as an int (numpy integers pass); a TypeError names `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer: {value!r}") from None


def _star(a, b):
    """Redheffer star product of amplitudes a = (r, t, r', t') then b."""
    # each row straight into one array (np.stack would hold all four twice),
    # taken before the temporaries (after them, a 200k-point sweep peaked
    # ~1 MB higher); assigned, not computed in place, which changes bits
    # (see _scan)
    out = np.empty((4,) + np.broadcast_shapes(np.shape(a[0]), np.shape(b[0])),
                   dtype=complex)
    r1, t1, p1, u1 = a
    r2, t2, p2, u2 = b
    inv = 1.0 / (1.0 - p1 * r2)
    out[0] = r1 + t1 * u1 * r2 * inv
    out[1] = t1 * t2 * inv
    out[2] = p2 + t2 * u2 * p1 * inv
    out[3] = u1 * u2 * inv
    return out


def _amplitudes(m: TransferMatrix):
    """(r, t, r', t') of transfer matrices with M22 != 0."""
    t = 1.0 / m[..., 1, 1]
    rp = -m[..., 1, 0] * t
    return np.stack((m[..., 0, 1] * t, t, rp, m[..., 0, 0] + m[..., 0, 1] * rp))


def _transfer(r, t, rp, tp) -> TransferMatrix:
    """Transfer matrices of the amplitudes (r, t, r', t')."""
    m = np.empty(np.shape(t) + (2, 2), dtype=complex)
    with np.errstate(all="ignore"):
        inv = 1.0 / t
    bad = ~np.isfinite(inv)
    if bad.any():
        where = np.argwhere(bad)[0].tolist()  # [] at a single detuning
        raise EngineError("|t| below the float range: M22 = 1/t overflows",
                          where[0] if len(where) == 1 else tuple(where) or None)
    m[..., 0, 0] = tp - r * rp * inv
    m[..., 0, 1] = r * inv
    m[..., 1, 0] = -rp * inv
    m[..., 1, 1] = inv
    return m


def _star_power(s, n: int):
    """Star product of n >= 1 copies of the amplitudes s = (r, t, r', t'), by
    repeated squaring: n.bit_length() + n.bit_count() - 2 star products."""
    result = None
    while True:
        if n & 1:
            result = s if result is None else _star(result, s)
        n >>= 1
        if not n:
            return result
        s = _star(s, s)


def matrix_power(m: TransferMatrix, n: int) -> TransferMatrix:
    """m**n for transfer matrices with M22 != 0, as a star power of their
    amplitudes."""
    n = require_int("n", n)
    if n < 0:
        raise ValueError("power must be non-negative")
    if n == 0:
        return identity_matrix(m.shape[:-2])
    return _transfer(*_star_power(_amplitudes(m), n))


def _zeta_blocks(density, shift, delta: np.ndarray, cfg: AtomResponseConfig):
    """zeta of slabs of surface density `density` at detuning delta - shift,
    in (slabs,) + grid blocks of at most ZETA_BLOCK elements (one slab at
    least).  The line sum is evaluated once per distinct Stark shift and
    scaled by each slab's -density * sigma0 / 2: the bits of zeta over the
    broadcast."""
    col = (-1,) + (1,) * delta.ndim
    shifts, row = np.unique(shift, return_inverse=True)
    lines = line_response(delta - shifts.reshape(col), cfg)
    sigma0 = resonant_cross_section(cfg.lambda_brg)
    scale = -density.reshape(col) * (0.5 * sigma0)
    width = max(1, ZETA_BLOCK // max(1, delta.size))
    for j0 in range(0, row.size, width):
        zs = lines[row[j0:j0 + width]]
        zs *= scale[j0:j0 + width]
        yield zs


def _scan(chain, delta, cfg, g):
    """(r, t, r', t') of the chain over a grid, walking its runs of identical
    slabs (_runs) first to last.  A run of L slabs with L.bit_length() +
    L.bit_count() < L (L >= 6) is stepped whole: the star power of its
    slab's closed-form amplitudes (_slabs), star-multiplied onto the state
    with r' = U - 1.  Every other slab takes the U-form step, with zeta from
    _zeta_blocks over those slabs only, so a chain with no run stepped whole
    has the bits of the written-out slab-by-slab scan.  The steps depend on
    the chain only, so grid slices carry the bits of the whole grid.  No
    product is written in place: numpy's in-place complex product takes
    another loop on one-element arrays, whose bits differ in the last place.
    Nor is an unnamed temporary a product's right factor: from 2^14 complex
    values (256 KiB) on, numpy reuses the temporary and computes a * (b * c)
    as (b * c) * a, and with FMA complex products do not commute bit for bit.
    The state is six separate arrays: as one (6, ...) block a wide-grid pass
    peaked ~1.3 MB higher."""
    sd, st = chain.surface_density, chain.stark_shift
    starts, lengths = _runs(chain)
    whole = [n.bit_length() + n.bit_count() < n for n in lengths.tolist()]
    single = np.repeat(~np.array(whole), lengths)
    izs = (iz for zs in _zeta_blocks(sd[single], st[single], delta, cfg)
           for iz in 1j * zs)
    g2 = g * g
    r, w, a, b, t, u = (*(np.zeros(delta.shape, dtype=complex) for _ in range(4)),
                        *(np.ones(delta.shape, dtype=complex) for _ in range(2)))
    for j, n, stepped in zip(starts.tolist(), lengths.tolist(), whole):
        if stepped:  # the scratch rows are not held through the star power
            w = a = b = None
            s = _star_power(_slabs(sd[j], st[j], delta, cfg, g[j]), n)
            r, t, u, _ = _star((r, t, u - 1.0, t), s)
            u += 1.0
            w, a, b = (np.empty(delta.shape, dtype=complex) for _ in range(3))
            continue
        for k in range(j, j + n):
            iz = next(izs)
            np.multiply(iz, u, out=w)  # w = 1 / (1 - iz U), U = 1 + r'
            np.subtract(1.0, w, out=w)
            np.divide(1.0, w, out=w)
            np.multiply(t, w, out=a)
            np.multiply(iz, t, out=b)  # r += iz t^2 w
            np.multiply(b, a, out=t)
            r += t
            np.multiply(a, g[k], out=t)  # t = g t w
            np.multiply(u, w, out=b)  # U = 1 + g^2 (U w - 1)
            b -= 1.0
            np.multiply(b, g2[k], out=u)
            u += 1.0
    return r, t, u - 1.0, t


def _slabs(density, shift, delta, cfg, g):
    """Closed-form (r, t, r', t') of slabs of surface density `density`, Stark
    shift `shift` and gap phase g at detuning delta, broadcast: (4, slabs)
    for every slab at one detuning, (4,) + grid for one slab over a grid."""
    iz = 1j * zeta(density, delta - shift, cfg)
    q = 1.0 / (1.0 - iz)
    g2 = g * g  # named, not a temporary: see _scan
    return np.stack((iz * q, g * q, iz * g2 * q, g * q))


def _period(chain):
    """Length of the shortest prefix that the chain repeats whole, slab for
    slab (same surface density, Stark shift and gap), to its end.  Only the
    slabs equal to slab 0 at a divisor of the slab count can start a repeat."""
    keys = sd, st, gp = chain.surface_density, chain.stark_shift, chain.gap_after
    n = chain.n_slabs
    same = (sd == sd[0]) & (st == st[0]) & (gp == gp[0])
    for p in same.nonzero()[0][1:].tolist():
        if n % p == 0 and all(np.array_equal(k[p:], k[:-p]) for k in keys):
            return p
    return n


def _runs(chain):
    """The first slab and the length of every run of consecutive identical
    slabs (same surface density, Stark shift and gap), in chain order."""
    sd, st, gp = chain.surface_density, chain.stark_shift, chain.gap_after
    new = (sd[1:] != sd[:-1]) | (st[1:] != st[:-1]) | (gp[1:] != gp[:-1])
    starts = np.append(0, new.nonzero()[0] + 1)
    return starts, np.diff(starts, append=chain.n_slabs)


def _fold(s):
    """Star product of the slab amplitudes s = (r, t, r', t'), (4, slabs),
    reduced pairwise, left factor first: a chain at a single detuning in
    log2 numpy calls.  One slab comes back as views of its rows."""
    while (n := len(s[0])) > 1:
        even = n - n % 2
        pairs = _star([x[0:even:2] for x in s], [x[1:even:2] for x in s])
        s = pairs if even == n else \
            np.concatenate([pairs, [x[even:] for x in s]], axis=1)
    return [x[0] for x in s]


def _prefixes(s, p):
    """In-place inclusive star scan of (4, n) amplitudes that repeat every p
    columns (p divides n; p = n holds for any input) by doubling: column j
    becomes the star product of columns 0..j, in log2(n) rounds.

    After the round of stride k, column j is the product of columns
    max(0, j - 2k + 1)..j.  From j = 2k - 1 on that window is not clipped, so
    it is combined by the same tree for every j, and column j has the bits of
    column j - p once j >= 2k - 1 + p.  A round therefore calls _star on
    columns k..2k - 2 + p only; the columns past them are copied from p back,
    by doubling copies, as far as the next round reads them and at the end.
    That is about 2n + p log2(n) star columns against n log2(n), and p = n is
    the written-out scan."""
    n = s.shape[1]
    k, done = 1, n  # columns 0..done - 1 hold the values of the last round
    while k < n:
        m = min(n, 2 * k - 1 + p)
        _repeat_columns(s, done, m, p)
        s[:, k:m] = _star(s[:, :m - k], s[:, k:m])
        k, done = 2 * k, m
    _repeat_columns(s, done, n, p)
    return s


def _repeat_columns(s, start, stop, p):
    """Fill columns start..stop - 1 of s with the columns p before them, in
    doubling copies from column start - p on."""
    first = start - p
    while start < stop:
        width = min(start - first, stop - start)
        s[:, start:start + width] = s[:, first:first + width]
        start += width


def unit_cell_matrix(chain: SlabChain, delta_brg, cfg: AtomResponseConfig,
                     geom: LatticeGeometry) -> TransferMatrix:
    """Transfer matrix of one period of the chain, layer then gap per slab.

    `delta_brg` may be a scalar or a grid; grid axes lead the 2x2 axes of the
    result.  The shortest prefix that the period repeats whole (_period) is
    computed once and star-powered to the whole period: on a grid by the
    scan over its runs of identical slabs (_scan), at a scalar detuning by
    the pairwise fold of the closed-form slab amplitudes (_fold).  The path
    depends on the chain only, so grid slices carry the bits of the whole
    grid.
    """
    delta = require_finite("delta_brg", delta_brg)
    if chain.n_slabs == 0:
        return identity_matrix(delta.shape)
    p = _period(chain)
    cell = chain if p == chain.n_slabs else SlabChain(
        chain.surface_density[:p], chain.stark_shift[:p], chain.gap_after[:p])
    g = np.exp(1j * (geom.k_brg * cell.gap_after * math.cos(geom.beta_i)))
    if delta.ndim:
        s = _scan(cell, delta, cfg, g)
    else:
        s = _fold(_slabs(cell.surface_density, cell.stark_shift, delta, cfg, g))
    return _transfer(*_star_power(s, chain.n_slabs // p))


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
    phi = np.where(r == 0.0, 0.0, np.arctan2(r.imag, r.real))  # no phase at r = 0
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

    At the end of gap j, with L the slabs 0..j and R the slabs after j, the
    field is E+ = t_L / (1 - r'_L r_R) and E- = r_R E+.  Star scans of the
    slabs and of the mirrored slabs give every L and R, and every factor
    stays bounded however opaque the chain.  The slab amplitudes and gap
    phases are computed over the shortest prefix that the flat chain
    repeats whole (_period) and tiled, and each scan round computes one such
    period of columns (_prefixes), with the bits of the scan written out
    over every slab.  The samples inside the gaps are then filled in
    vectorized blocks of slabs.  A block takes its sample offsets and phases
    exp(i k_z s) from a table with one row per distinct gap width in it, so
    a chain of few widths costs few exponentials, and the table is never
    larger than the block.
    """
    samples_per_gap = require_int("samples_per_gap", samples_per_gap)
    if samples_per_gap < 2:
        raise ValueError("samples_per_gap must be >= 2")
    delta = require_scalar("delta_brg", delta_brg)
    flat = chain.repeated()
    if flat.n_slabs == 0:
        return np.zeros(1), np.ones(1)
    k_z = geom.k_brg * math.cos(geom.beta_i)
    gaps = flat.gap_after
    gapped = gaps > 0.0

    # E+ at the end of every gap; no slab follows the last, so its r_R is 0
    p = _period(flat)
    reps = flat.n_slabs // p
    exits = np.exp(1j * k_z * gaps[:p])
    cell = _slabs(flat.surface_density[:p], flat.stark_shift[:p], delta, cfg, exits)
    exits, left, mirror = (np.tile(a, reps) if reps > 1 else a
                           for a in (exits, cell, cell[[2, 3, 0, 1], ::-1]))
    right = _prefixes(mirror, p)[2, ::-1]  # r of the slabs from j on
    _prefixes(left, p)
    r_right = np.append(right[1:], 0.0)
    e_plus = left[1] / (1.0 - left[2] * r_right)
    first = abs(1.0 + right[0]) ** 2
    del cell, left, mirror, right  # 8 complex per slab: not kept for the samples

    # samples across the gaps, at most PROFILE_BLOCK of them per numpy call
    g = gaps[gapped]
    e_in = np.stack((e_plus / exits, r_right * e_plus * exits))[:, gapped]
    starts = np.concatenate([[0.0], np.cumsum(g)[:-1]])
    fractions = np.arange(1, samples_per_gap + 1) / samples_per_gap
    z = np.empty(1 + g.size * samples_per_gap)
    intensity = np.empty_like(z)
    z[0], intensity[0] = 0.0, first
    z_rows = z[1:].reshape(g.size, samples_per_gap)
    i_rows = intensity[1:].reshape(g.size, samples_per_gap)
    step = max(1, PROFILE_BLOCK // samples_per_gap)
    for b0 in range(0, g.size, step):
        b = slice(b0, b0 + step)
        widths, row = np.unique(g[b], return_inverse=True)
        s = fractions * widths[:, None]
        phase = np.exp(1j * k_z * s)[row]
        field = e_in[0, b, None] * phase + e_in[1, b, None] / phase
        np.add(starts[b, None], s[row], out=z_rows[b])
        np.square(np.abs(field), out=i_rows[b])
    return z, intensity


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


def density_of_states(delta_grid, theta):
    """Relative density of optical states, |d Re(theta) / d delta|.

    Computed by central finite differences on a uniform detuning grid; set to
    zero wherever Im(theta) > 1e-9 (inside a stop band).  Warns when the
    grid is too coarse to trust the derivative.
    """
    delta = require_finite("delta_grid", delta_grid)
    theta = np.asarray(theta, dtype=complex)
    if delta.ndim != 1 or delta.shape != theta.shape:
        raise ValueError("delta_grid and theta must be matching 1D arrays")
    if delta.size < 3:
        raise ValueError("need at least 3 grid points")
    steps = np.diff(delta)
    if steps[0] == 0.0:
        raise ValueError("delta_grid must have a non-zero step")
    if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise ValueError("detuning grid must be uniform")
    re = theta.real
    if np.any(np.abs(np.diff(re)) > math.pi / 4.0):
        warnings.warn("Re(theta) jumps exceed pi/4 between grid points; "
                      "the detuning grid is too coarse", stacklevel=2)
    rho = np.abs(np.gradient(re, delta))
    rho[theta.imag > 1e-9] = 0.0
    return rho
