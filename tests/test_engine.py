import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import braggstack as bs
from braggstack import engine
from braggstack.engine import ZETA_BLOCK, _period, _prefixes, _runs, _slabs, \
    _star, _zeta_blocks


def _random_flat_chain(rng, n, gamma=bs.GAMMA_RB85_D2):
    return bs.SlabChain(rng.uniform(0.0, 3e11, n), rng.uniform(-5.0, 5.0, n) * gamma,
                        rng.uniform(0.0, 1.5e-6, n))


def make_random_chain(rng, max_slabs=20, gamma=bs.GAMMA_RB85_D2):
    return _random_flat_chain(rng, int(rng.integers(1, max_slabs + 1)), gamma)


_slab_values = st.tuples(st.floats(0.0, 3e11), st.floats(-5.0, 5.0),
                         st.floats(0.0, 1.5e-6))


def _periodic_chain(slabs, periods, gamma=bs.GAMMA_RB85_D2):
    sd, shift, gap = (np.array(v) for v in zip(*slabs))
    return bs.SlabChain(sd, shift * gamma, gap, periods=periods)


# flat chains from thin to a thousand slabs, and periodic cells of 1-4
# slabs over 1-400 periods, thin to opaque
_chains = st.one_of(
    st.builds(lambda seed, n: _random_flat_chain(np.random.default_rng(seed), n),
              st.integers(0, 2**32 - 1),
              st.one_of(st.integers(1, 20),
                        st.integers(1022, 1040))),
    st.builds(_periodic_chain, st.lists(_slab_values, min_size=1, max_size=4),
              st.integers(1, 400)))
# a scalar detuning or a 1-4-point grid, in linewidths
_detunings = st.one_of(st.floats(-12.0, 12.0),
                       st.lists(st.floats(-12.0, 12.0), min_size=1,
                                max_size=4).map(np.array))


def test_layer_matrix_transcription():
    m = bs.layer_matrix(0.5)
    np.testing.assert_array_equal(m, np.array([[1 + 0.5j, 0.5j],
                                               [-0.5j, 1 - 0.5j]]))
    np.testing.assert_array_equal(bs.layer_matrix(0.0), np.eye(2))


def test_layer_matrix_unimodular():
    rng = np.random.default_rng(0)
    zs = rng.normal(size=50) + 1j * rng.uniform(0, 1, 50)
    np.testing.assert_allclose(bs.det2(bs.layer_matrix(zs)), 1.0, atol=1e-14)


def test_gap_matrix_identity_and_half_wave(geom):
    np.testing.assert_array_equal(bs.gap_matrix(0.0, geom.k_brg, geom.beta_i), np.eye(2))
    dz = math.pi / (geom.k_brg * math.cos(geom.beta_i))
    m = bs.gap_matrix(dz, geom.k_brg, geom.beta_i)
    np.testing.assert_allclose(m, -np.eye(2), atol=1e-12)


def test_bragg_condition_makes_pi_cell(geom):
    # half a lattice period at the matched angle is exactly a half-wave gap
    m = bs.gap_matrix(geom.lambda_dip / 2, geom.k_brg, geom.beta_i)
    np.testing.assert_allclose(m, -np.eye(2), atol=1e-12)


def test_gap_matrix_rejects_negative(geom):
    with pytest.raises(ValueError):
        bs.gap_matrix(-1e-9, geom.k_brg, geom.beta_i)


def test_single_slab_reduces_to_layer(cfg, geom):
    chain = bs.SlabChain([1.215e11], [0.0], [0.0])
    z = bs.zeta(1.215e11, 0.0, cfg)
    np.testing.assert_allclose(bs.chain_matrix(chain, 0.0, cfg, geom),
                               bs.layer_matrix(z), rtol=1e-15)


def test_scatter_identity():
    res = bs.scatter(bs.identity_matrix())
    assert res.r == 0 and res.t == 1
    assert res.big_r == 0 and res.big_t == 1 and res.big_a == 0


def test_scatter_single_layer_closed_form(cfg, geom):
    for delta_g in (-31.0, -2.5, 0.0, 1.0, 7.0):
        z = bs.zeta(1.215e11, delta_g * cfg.gamma, cfg)
        res = bs.scatter(bs.layer_matrix(z))
        assert abs(res.r - 1j * z / (1 - 1j * z)) < 1e-15
        assert abs(res.t - 1 / (1 - 1j * z)) < 1e-15
    z = 0.017647j
    res = bs.scatter(bs.layer_matrix(z))
    assert res.r == pytest.approx(-0.017341, abs=1e-5)
    assert res.big_r == pytest.approx(3.01e-4, rel=5e-3)


def test_scatter_singular():
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(bs.SingularMatrixError):
        bs.scatter(m)


def test_thin_slab_additivity(cfg, geom):
    # zero-gap stacking of weak slabs adds their strengths to O(zeta^2)
    for x, y in ((3e7, 5e7), (1e8, 2e7)):
        chain = bs.SlabChain([x, y], [0.0, 0.0], [0.0, 0.0])
        got = bs.chain_matrix(chain, 0.3 * cfg.gamma, cfg, geom)
        zx = bs.zeta(x, 0.3 * cfg.gamma, cfg)
        zy = bs.zeta(y, 0.3 * cfg.gamma, cfg)
        ref = bs.layer_matrix(zx + zy)
        assert np.max(np.abs(got - ref)) < 10 * abs(zx * zy)
        assert max(abs(zx), abs(zy)) < 1e-4


def test_chain_det_is_one_random(cfg, geom):
    rng = np.random.default_rng(3)
    for _ in range(20):
        chain = make_random_chain(rng)
        m = bs.chain_matrix(chain, rng.uniform(-8, 8) * cfg.gamma, cfg, geom)
        assert abs(bs.det2(m) - 1) < 1e-12


def test_repeated_squaring_matches_sequential(cfg, geom):
    chain = bs.SlabChain([1.215e11], [0.0], [geom.lambda_dip / 2], periods=357)
    deltas = np.linspace(-3, 3, 7) * cfg.gamma
    fast = bs.chain_matrix(chain, deltas, cfg, geom)
    slow = bs.chain_matrix(chain.repeated(), deltas, cfg, geom)
    assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) < 1e-10


def test_lossless_real_zeta_chain(geom):
    rng = np.random.default_rng(11)
    m = bs.identity_matrix()
    for zr, g in zip(rng.uniform(-0.05, 0.05, 250), rng.uniform(0, 1e-6, 250)):
        m = bs.matmul2(m, bs.layer_matrix(float(zr)))
        m = bs.matmul2(m, bs.gap_matrix(float(g), geom.k_brg, geom.beta_i))
    res = bs.scatter(m)
    assert abs(res.big_r + res.big_t - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(chain=_chains, delta=_detunings)
def test_passivity_random_chains(cfg, geom, chain, delta):
    # a scalar detuning (closed-form slabs) and its one-point grid (the slab
    # scan) are folded from different parts: they agree to rounding
    res = bs.scatter(bs.chain_matrix(chain, delta * cfg.gamma, cfg, geom))
    assert np.all(res.big_r <= 1 + 1e-12)
    assert np.all(res.big_t <= 1 + 1e-12)
    assert np.all(res.big_a >= -1e-9)
    if np.ndim(delta) == 0:
        grid = bs.scatter(bs.chain_matrix(chain, np.array([delta * cfg.gamma]),
                                          cfg, geom))
        assert abs(res.r - grid.r[0]) <= 1e-10 and abs(res.t - grid.t[0]) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(chain=_chains, delta=_detunings)
def test_mirrored_chain_preserves_transmission(cfg, geom, chain, delta):
    a = bs.scatter(bs.chain_matrix(chain, delta * cfg.gamma, cfg, geom))
    b = bs.scatter(bs.chain_matrix(chain.mirrored(), delta * cfg.gamma, cfg, geom))
    assert np.all(np.abs(a.big_t - b.big_t) <= 1e-10)


def test_mirror_symmetric_detuning_of_lattice_constant(cfg1, geom):
    # equal slab strengths, per-cell phase pi +- eps: spectra mirror exactly
    eps = 3e-3
    kz = geom.k_brg * math.cos(geom.beta_i)
    deltas = np.linspace(-6, 6, 241) * cfg1.gamma
    spectra = {}
    for sign in (+1, -1):
        chain = bs.SlabChain([1.215e11], [0.0], [(math.pi + sign * eps) / kz],
                             periods=150)
        spectra[sign] = bs.sweep_scatter(chain, deltas, cfg1, geom).big_r
    assert np.max(np.abs(spectra[+1] - spectra[-1][::-1])) < 1e-12


def test_opaque_field_profiles_meet_their_boundaries(cfg, geom):
    # deep in a stop band the forward field falls like |t|; the star-scan
    # amplitudes keep every factor bounded, so the profile stays finite and
    # its entry and exit samples are |1 + r|^2 and |t|^2 however opaque the
    # chain (|t|^2 ~ 1e-97 over the 20,000 detuned periods)
    g8 = geom.with_lattice_mismatch(0.8e-9)
    for chain, g in ((bs.perfect_lattice(3e17, 20_000, g8), g8),
                     (bs.two_component_lattice(3e17, 0.2, 1500, 10, geom), geom),
                     (bs.two_component_lattice(3e17, 0.2, 3000, 10, geom), geom)):
        res = bs.scatter(bs.chain_matrix(chain, 0.0, cfg, g))
        _, intensity = bs.field_profile(chain, 0.0, 4, cfg, g)
        assert np.all(np.isfinite(intensity))
        assert intensity[0] == pytest.approx(abs(1 + res.r) ** 2, rel=1e-9, abs=0)
        assert intensity[-1] == pytest.approx(res.big_t, rel=1e-9, abs=0)


def test_empty_chain_is_identity(cfg, geom):
    chain = bs.SlabChain(np.zeros(0), np.zeros(0), np.zeros(0))
    res = bs.scatter(bs.chain_matrix(chain, 0.0, cfg, geom))
    assert res.r == 0 and res.t == 1


def test_field_profile_boundaries(cfg, geom):
    chain = bs.perfect_lattice(3e17, 80, geom)
    res = bs.scatter(bs.chain_matrix(chain, 0.0, cfg, geom))
    z, intensity = bs.field_profile(chain, 0.0, 16, cfg, geom)
    assert abs(intensity[0] - abs(1 + res.r) ** 2) < 1e-9
    assert abs(intensity[-1] - res.big_t) < 1e-9
    assert z[0] == 0.0
    assert z[-1] == pytest.approx(80 * geom.lambda_dip / 2, rel=1e-12)


def test_field_profile_no_atoms_is_flat(cfg, geom):
    chain = bs.SlabChain(np.zeros(30), np.zeros(30),
                         np.full(30, geom.lambda_dip / 2))
    _, intensity = bs.field_profile(chain, 0.0, 8, cfg, geom)
    np.testing.assert_allclose(intensity, 1.0, atol=1e-12)


def test_field_profile_requires_two_samples(cfg, geom):
    chain = bs.perfect_lattice(3e17, 3, geom)
    with pytest.raises(ValueError):
        bs.field_profile(chain, 0.0, 1, cfg, geom)


@pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(3.0), "3"])
def test_integer_inputs_reject_non_integers_by_name(cfg, geom, bad):
    # numpy integers pass; anything else names the input instead of failing
    # later inside the engine
    with pytest.raises(TypeError, match=r"^periods must be an integer: "):
        bs.SlabChain([1.0], [0.0], [0.0], periods=bad)
    chain = bs.SlabChain([3e11], [0.0], [geom.lambda_dip / 2], periods=np.int64(3))
    assert type(chain.periods) is int and chain.periods == 3
    with pytest.raises(TypeError, match=r"^samples_per_gap must be an integer: "):
        bs.field_profile(chain, 0.0, bad, cfg, geom)
    z, _ = bs.field_profile(chain, 0.0, np.int32(3), cfg, geom)
    assert z.size == 1 + 3 * 3


@pytest.mark.parametrize("chain, delta, intensity", [
    (bs.SlabChain(np.zeros(0), np.zeros(0), np.zeros(0)), 0.0, 1.0),
    (bs.SlabChain([1e12], [0.0], [0.0], periods=3), 0.0, 0.6101565076132991),
    (bs.SlabChain([1e12], [0.0], [1e-7]), math.nan, None),
], ids=["empty", "gapless", "nan-detuning"])
def test_field_profile_edge_cases(cfg, geom, chain, delta, intensity):
    # without a gap only the entry sample |1 + r|^2 is left; a non-finite
    # detuning is named
    if intensity is None:
        with pytest.raises(ValueError, match="^delta_brg must be finite"):
            bs.field_profile(chain, delta, 4, cfg, geom)
        return
    z, got = bs.field_profile(chain, delta, 4, cfg, geom)
    assert z.tolist() == [0.0]
    assert got.tolist() == pytest.approx([intensity], rel=1e-12)


_passive_slabs = st.lists(st.tuples(st.floats(0.0, 3e11), st.floats(-5.0, 5.0),
                                    st.floats(1e-9, 1.5e-6)),
                          min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(slabs=_passive_slabs,
       periods=st.one_of(st.integers(1, 100), st.integers(1500, 3000)),
       delta=st.floats(-12.0, 12.0))
def test_absorption_at_the_layers_is_one_minus_r_minus_t(cfg, geom, slabs,
                                                          periods, delta):
    # a point layer absorbs 2 Im zeta |E|^2 of the incident flux, and with
    # every gap > 0 the profile samples the field at each layer (the entry
    # sample, then the end of each gap): an independent check of every
    # interior amplitude against A = 1 - R - T of the periodic path
    sd, shift, gap = (np.array(v) for v in zip(*slabs))
    chain = bs.SlabChain(sd, shift * cfg.gamma, gap, periods=periods)
    flat = chain.repeated()
    spg = 2
    _, intensity = bs.field_profile(chain, delta * cfg.gamma, spg, cfg, geom)
    z = bs.zeta(flat.surface_density, delta * cfg.gamma - flat.stark_shift, cfg)
    absorbed = np.sum(2.0 * z.imag * intensity[:-1:spg])
    big_a = bs.scatter(bs.chain_matrix(chain, delta * cfg.gamma, cfg, geom)).big_a
    assert abs(absorbed - big_a) <= 1e-10


def test_bloch_phase_free_dispersion(geom):
    kz = geom.k_brg * math.cos(geom.beta_i)
    for phi in np.linspace(0.05, math.pi - 0.05, 25):
        cell = bs.matmul2(bs.layer_matrix(0.0),
                          bs.gap_matrix(phi / kz, geom.k_brg, geom.beta_i))
        theta = bs.bloch_phase(cell)
        assert abs(theta - phi) < 1e-9


def test_bloch_phase_band_edge_and_gap(geom):
    kz = geom.k_brg * math.cos(geom.beta_i)
    # real zeta with gap phase exactly pi sits at the band edge
    cell = bs.matmul2(bs.layer_matrix(0.02), bs.gap_matrix(math.pi / kz,
                                                           geom.k_brg, geom.beta_i))
    theta = bs.bloch_phase(cell)
    assert theta.real == pytest.approx(math.pi, abs=1e-6)
    # phase slightly below pi pushes cos(theta) past -1: inside the gap
    cell = bs.matmul2(bs.layer_matrix(0.02),
                      bs.gap_matrix((math.pi - 0.01) / kz, geom.k_brg, geom.beta_i))
    w = 0.5 * (cell[0, 0] + cell[1, 1])
    assert w.real < -1.0
    theta = bs.bloch_phase(cell)
    assert theta.imag > 0.0


def test_bloch_phase_rejects_non_unimodular():
    with pytest.raises(ValueError):
        bs.bloch_phase(2.0 * bs.identity_matrix())


def test_density_of_states_free_and_gapped():
    delta = np.linspace(-1.0, 1.0, 2001)
    flat = np.full(delta.size, 1.3, dtype=complex)
    np.testing.assert_allclose(bs.density_of_states(delta, flat), 0.0, atol=1e-9)
    theta = np.arccos(np.clip(-1.2 + 2.0 * delta ** 2, -2, 2).astype(complex))
    theta = np.where(theta.imag < 0, -theta, theta)
    # the gapped theta jumps by more than pi/4 between samples
    with pytest.warns(UserWarning, match="too coarse"):
        rho = bs.density_of_states(delta, theta)
    ingap = np.abs(theta.imag) > 1e-9
    assert ingap.any()
    assert np.all(rho[ingap] == 0.0)
    assert rho[~ingap].max() > 0.0


def test_density_of_states_coarse_grid_warns():
    delta = np.linspace(0, 1, 5)
    theta = np.array([0, 1.0, 2.5, 0.5, 0.2], dtype=complex)
    with pytest.warns(UserWarning):
        bs.density_of_states(delta, theta)


@pytest.mark.parametrize("delta, message", [
    (np.array([0.0, math.nan, 2.0, 3.0]), r"^delta_grid must be finite: nan at index 1$"),
    (np.full(4, 0.5), r"^delta_grid must have a non-zero step$")])
def test_density_of_states_refuses_a_grid_it_cannot_differentiate(delta, message):
    with pytest.raises(ValueError, match=message):
        bs.density_of_states(delta, np.full(4, 0.3, dtype=complex))


def test_slab_chain_validation():
    with pytest.raises(ValueError):
        bs.SlabChain([-1.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        bs.SlabChain([1.0], [0.0], [-1e-9])
    with pytest.raises(ValueError):
        bs.SlabChain([1.0], [0.0], [0.0], periods=0)
    with pytest.raises(ValueError):
        bs.SlabChain([1.0, 2.0], [0.0], [0.0])


@pytest.mark.parametrize("field", ["surface_density", "stark_shift", "gap_after"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_slab_chain_rejects_non_finite_values(field, bad):
    # the error names the field and the first bad index
    values = {"surface_density": np.ones(6), "stark_shift": np.zeros(6),
              "gap_after": np.ones(6)}
    values[field][[2, 4]] = bad
    with pytest.raises(ValueError, match=rf"^{field} must be finite: "
                                         rf"{bad} at index 2$"):
        bs.SlabChain(**values)


def test_engine_rejects_non_finite_detunings(cfg, geom):
    chain = bs.perfect_lattice(3e17, 3, geom)
    with pytest.raises(ValueError, match=r"^delta_brg must be finite: nan$"):
        bs.chain_matrix(chain, np.nan, cfg, geom)
    grid = np.zeros(7)
    grid[[5, 6]] = np.inf, np.nan
    with pytest.raises(ValueError, match=r"^delta_brg must be finite: inf at index 5$"):
        bs.unit_cell_matrix(chain, grid, cfg, geom)
    grid = np.zeros((2, 3))
    grid[1, 0] = -np.inf
    with pytest.raises(ValueError, match=r"finite: -inf at index \(1, 0\)$"):
        bs.chain_matrix(chain, grid, cfg, geom)


def _slab_zetas(chain, delta, cfg):
    blocks = list(_zeta_blocks(chain.surface_density, chain.stark_shift, delta, cfg))
    assert all(b.size <= max(ZETA_BLOCK, delta.size) for b in blocks)
    return np.concatenate(blocks)


def test_slab_zetas_equal_broadcast_zeta_bitwise(cfg, geom):
    # one line-sum call over the distinct Stark shifts, same bits as zeta
    # over the (slab, grid) broadcast and, on a grid, as per-slab calls;
    # the 1101-point grid comes in blocks of 14 slabs
    stark = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=4, n_ss=20, T=geom.T, U0=geom.U0, stark_enabled=True), geom)
    two = bs.two_component_lattice(3e17, 0.2, 4, 20, geom).repeated()
    assert np.unique(stark.stark_shift).size > 1
    grid = bs.detuning_grid() * cfg.gamma
    for chain in (stark, two):
        for delta in (grid, np.asarray(0.7 * cfg.gamma)):
            col = (-1,) + (1,) * delta.ndim
            want = bs.zeta(chain.surface_density.reshape(col),
                           delta - chain.stark_shift.reshape(col), cfg)
            got = _slab_zetas(chain, delta, cfg)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        per_slab = np.stack([bs.zeta(sd, grid - st, cfg) for sd, st in
                             zip(chain.surface_density, chain.stark_shift)])
        assert _slab_zetas(chain, grid, cfg).tobytes() == per_slab.tobytes()


def _star_scan(chain, delta, cfg, geom):
    """The written-out slab-by-slab scan on (r, t, U = 1 + r'), converted to
    a transfer matrix."""
    g = np.exp(1j * (geom.k_brg * chain.gap_after * math.cos(geom.beta_i)))
    r = np.zeros(delta.shape, dtype=complex)
    t, u = np.ones(delta.shape, dtype=complex), np.ones(delta.shape, dtype=complex)
    for j, (sd, st) in enumerate(zip(chain.surface_density, chain.stark_shift)):
        iz = 1j * bs.zeta(sd, delta - st, cfg)
        w = 1.0 / (1.0 - iz * u)
        a = t * w
        r = r + (iz * t) * a
        t = a * g[j]
        u = (u * w - 1.0) * (g * g)[j] + 1.0
    return _to_transfer(r, t, u - 1.0, t)


def _to_transfer(r, t, rp, tp):
    """The written-out transfer matrix of amplitudes (r, t, r', t')."""
    inv = 1.0 / t
    m = np.empty(np.shape(t) + (2, 2), dtype=complex)
    m[..., 0, 0] = tp - r * rp * inv
    m[..., 0, 1] = r * inv
    m[..., 1, 0] = -rp * inv
    m[..., 1, 1] = inv
    return m


def _sequential_fold(chain, delta, cfg, geom):
    """The written-out transfer-matrix product, gap after slab."""
    m = bs.identity_matrix(np.shape(delta))
    for sd, st, g in zip(chain.surface_density, chain.stark_shift, chain.gap_after):
        m = bs.matmul2(m, bs.layer_matrix(bs.zeta(sd, delta - st, cfg)))
        m = bs.matmul2(m, bs.gap_matrix(g, geom.k_brg, geom.beta_i))
    return m


def _run_scan(chain, delta, cfg, geom):
    """The written-out run-by-run scan: a run of 6 slabs or more (where
    repeated squaring takes fewer star products than it has slabs) is the
    star power of its first slab's closed-form amplitudes by repeated
    squaring, star-multiplied onto the state (r, t, U - 1, t); every other
    slab takes the U-form step of _star_scan."""
    g = np.exp(1j * (geom.k_brg * chain.gap_after * math.cos(geom.beta_i)))
    keys = list(zip(chain.surface_density, chain.stark_shift, chain.gap_after))
    r = np.zeros(delta.shape, dtype=complex)
    t, u = np.ones(delta.shape, dtype=complex), np.ones(delta.shape, dtype=complex)
    j = 0
    while j < len(keys):
        n = 1
        while j + n < len(keys) and keys[j + n] == keys[j]:
            n += 1
        sd, shift, _ = keys[j]
        iz = 1j * bs.zeta(sd, delta - shift, cfg)
        if n >= 6:
            q = 1.0 / (1.0 - iz)
            base = np.stack((iz * q, g[j] * q, iz * (g[j] * g[j]) * q, g[j] * q))
            power, m = None, n
            while m:
                if m & 1:
                    power = base if power is None else _stacked_star(power, base)
                m >>= 1
                if m:
                    base = _stacked_star(base, base)
            r, t, rp, _ = _stacked_star((r, t, u - 1.0, t), power)
            u = 1.0 + rp
        else:
            for k in range(j, j + n):
                w = 1.0 / (1.0 - iz * u)
                a = t * w
                r = r + (iz * t) * a
                t = a * g[k]
                u = (u * w - 1.0) * (g * g)[k] + 1.0
        j += n
    return _to_transfer(r, t, u - 1.0, t)


def test_unit_cell_matrix_on_grids_is_sequential_fold_bitwise(cfg, geom):
    # any grid, one point included: a chain without runs of identical slabs
    # (a Stark chain) is scanned slab by slab, gap after slab, with the bits
    # of the written-out scan; the two-component cell (the ordered slab by
    # the U-form step, 19 sublayers as a star power, then the last sublayer
    # with a half gap) has the bits of the written-out run-by-run scan, and
    # so do runs of 5 (slab by slab) and of 6 and 7 slabs (stepped whole);
    # all are the transfer-matrix product to rounding
    stark = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=4, n_ss=20, T=geom.T, U0=geom.U0, stark_enabled=True), geom)
    two = bs.two_component_lattice(3e17, 0.2, 4, 20, geom)
    assert _runs(two)[1].tolist() == [1, 19, 1]
    kinds = _random_flat_chain(np.random.default_rng(3), 4, cfg.gamma)
    runs = bs.SlabChain(*(np.repeat(a, [5, 6, 1, 7]) for a in (
        kinds.surface_density, kinds.stark_shift, kinds.gap_after)))
    for delta in (bs.detuning_grid() * cfg.gamma, np.array([0.7 * cfg.gamma])):
        for chain, written in ((stark, _star_scan), (two, _run_scan),
                               (runs, _run_scan)):
            m = _sequential_fold(chain, delta, cfg, geom)
            got = bs.unit_cell_matrix(chain, delta, cfg, geom)
            assert got.tobytes() == written(chain, delta, cfg, geom).tobytes()
            assert np.max(np.abs(got - m)) <= 1e-12 * np.max(np.abs(m))


def _check_run_scan(chain, delta, cfg, geom, oracle_points):
    """unit_cell_matrix on a grid of a chain of distinct slabs against the
    written-out scan, bit for bit at every length, and at `oracle_points`
    against the boundary-value oracle."""
    got = bs.unit_cell_matrix(chain, delta, cfg, geom)
    assert got.tobytes() == _star_scan(chain, delta, cfg, geom).tobytes()
    res = bs.scatter(got)
    for i in oracle_points:
        r_o, t_o = bs.solve_boundary_value(chain, delta[i], cfg, geom)
        assert abs(res.r[i] - r_o) < 1e-10 and abs(res.t[i] - t_o) < 1e-10


@pytest.mark.parametrize("n", [1023, 1024, 1025, 1031])
def test_run_scan_matches_written_out_scan_and_oracle(cfg, geom, n):
    # long random chains keep the written-out scan's bits at every length
    rng = np.random.default_rng(n)
    chain = _random_flat_chain(rng, n, cfg.gamma)
    _check_run_scan(chain, bs.detuning_grid() * cfg.gamma, cfg, geom,
                    range(0, 1101, 100))
    _check_run_scan(chain, np.array([0.7 * cfg.gamma]), cfg, geom, [0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1021, 1040),
       deltas=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=3))
def test_run_scan_over_random_passive_chains(cfg, geom, seed, n, deltas):
    chain = _random_flat_chain(np.random.default_rng(seed), n, cfg.gamma)
    delta = np.array(deltas) * cfg.gamma
    _check_run_scan(chain, delta, cfg, geom, range(delta.size))


def _chain_of_runs(seed, n_runs, n_kinds, max_length, periods=1,
                   gamma=bs.GAMMA_RB85_D2):
    """n_runs runs of 1..max_length identical slabs, each of one of n_kinds
    slab kinds (a kind may follow itself), a quarter of the densities and of
    the gaps zero."""
    rng = np.random.default_rng(seed)
    sd, gap = rng.uniform(0.0, 3e11, n_kinds), rng.uniform(0.0, 1.5e-6, n_kinds)
    sd[rng.random(n_kinds) < 0.25] = 0.0
    gap[rng.random(n_kinds) < 0.25] = 0.0
    kinds = np.stack((sd, rng.uniform(-5.0, 5.0, n_kinds) * gamma, gap))
    slabs = np.repeat(kinds[:, rng.integers(0, n_kinds, n_runs)],
                      rng.integers(1, max_length + 1, n_runs), axis=1)
    return bs.SlabChain(*slabs, periods=periods)


def _mixed_chain(seed, n_runs, gamma=bs.GAMMA_RB85_D2):
    """n_runs runs of distinct random slabs, about a fifth of them 6-40 slabs
    long (stepped whole) and the others one slab."""
    rng = np.random.default_rng(seed)
    slabs = np.stack((rng.uniform(0.0, 3e11, n_runs),
                      rng.uniform(-5.0, 5.0, n_runs) * gamma,
                      rng.uniform(0.0, 1.5e-6, n_runs)))
    lengths = np.where(rng.random(n_runs) < 0.2, rng.integers(6, 41, n_runs), 1)
    return bs.SlabChain(*np.repeat(slabs, lengths, axis=1))


def _slab_scan_matrix(chain, delta, cfg, geom):
    """chain_matrix with the cell written out slab by slab (_star_scan)."""
    cell = _star_scan(chain, delta, cfg, geom)
    return bs.matrix_power(cell, chain.periods) if chain.periods > 1 else cell


def test_step_choice_never_depends_on_the_grid(cfg, geom):
    # which runs are stepped whole depends on the chain only, so a sweep in
    # grid slices of 1 or 5 points has the bits of the whole-grid chain
    # matrix: the default cell (19 sublayers stepped whole), a T = 0
    # sequential cell (runs of 10 and 9 empty sublayers), long runs among
    # distinct slabs, and a long random cell, flat and periodic
    cold = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=50, n_ss=20, T=0.0, U0=geom.U0, stark_enabled=True), geom)
    assert _runs(cold)[1].tolist() == [10, 1, 9]
    cell = _random_flat_chain(np.random.default_rng(7), 1027, cfg.gamma)
    chains = (bs.two_component_lattice(3e17, 0.2, 400, 20, geom), cold,
              _mixed_chain(11, 60, cfg.gamma), cell,
              bs.SlabChain(cell.surface_density, cell.stark_shift,
                           cell.gap_after, periods=3))
    delta = bs.detuning_grid(-8, 8, 23) * cfg.gamma
    for chain in chains:
        whole = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
        for chunk in (1, 5):
            with mock.patch.object(bs.experiments, "GRID_CHUNK", chunk):
                swept = bs.sweep_scatter(chain, delta, cfg, geom)
            for f in ("r", "t", "big_r", "big_t", "big_a", "phi"):
                assert getattr(swept, f).tobytes() == getattr(whole, f).tobytes()


# periodic cells of 1-8 runs over 2-60 periods
_periodic_runs = st.builds(_chain_of_runs, st.integers(0, 2**32 - 1),
                           st.integers(1, 8), st.integers(1, 4),
                           st.integers(1, 40), st.integers(2, 60))
# flat chains of 1-30 runs and of a thousand runs and more, the periodic
# cells, the same cells written out flat, which repeat a prefix slab for
# slab, and long runs among distinct slabs
_chains_of_runs = st.one_of(
    st.builds(_chain_of_runs, st.integers(0, 2**32 - 1),
              st.one_of(st.integers(1, 30), st.integers(1024, 1040)),
              st.integers(1, 6), st.integers(1, 40)),
    _periodic_runs, _periodic_runs.map(bs.SlabChain.repeated),
    st.builds(_mixed_chain, st.integers(0, 2**32 - 1), st.integers(1, 200)))


@settings(max_examples=40, deadline=None)
@given(chain=_chains_of_runs,
       deltas=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=3))
def test_run_path_matches_slab_scan_and_oracle(cfg, geom, chain, deltas):
    # a chain that repeats a shorter prefix is the star power of it, and a
    # run of 6 identical slabs or more is stepped whole; otherwise the chain
    # is the slab scan, bit for bit.
    # Either way it agrees with the slab scan to rounding and with the
    # oracle, and grid slices of one point carry the bits of the whole
    # grid.  Near a band edge the rounding of a star power grows like the
    # slab count N, as in the Bragg-phase law (5,000 identical slabs without
    # gaps: r off the closed form by 5.8e-13 as a star power, by 3.2e-15
    # scanned slab by slab), so past 1,000 slabs the amplitudes agree
    # within 1e-15 N
    delta = np.array(deltas) * cfg.gamma
    got = bs.chain_matrix(chain, delta, cfg, geom)
    want = _slab_scan_matrix(chain, delta, cfg, geom)
    if _period(chain) == chain.n_slabs and _runs(chain)[1].max() < 6:
        assert got.tobytes() == want.tobytes()
    res, ref = bs.scatter(got), bs.scatter(want)
    bound = max(1e-12, 1e-15 * chain.total_slabs)
    assert np.max(np.abs(res.r - ref.r)) <= bound
    assert np.max(np.abs(res.t - ref.t)) <= bound
    for i, d in enumerate(delta):
        r_o, t_o = bs.solve_boundary_value(chain, d, cfg, geom)
        assert abs(res.r[i] - r_o) < 1e-10 and abs(res.t[i] - t_o) < 1e-10
    with mock.patch.object(bs.experiments, "GRID_CHUNK", 1):
        swept = bs.sweep_scatter(chain, delta, cfg, geom)
    for f in ("r", "t", "big_r", "big_t", "big_a", "phi"):
        assert getattr(swept, f).tobytes() == getattr(res, f).tobytes()


def test_run_path_is_taken_by_the_chain_alone(cfg, geom):
    # the default cell (3 runs: the ordered slab, 19 sublayers, a last
    # sublayer with a half gap) repeats 21 slabs, also 600 periods of it
    # written out flat; a Stark cell repeats 20 slabs, in runs of one or
    # two; a perfect lattice repeats its one slab; random slabs repeat
    # nothing shorter
    cell = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    stark = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=4, n_ss=20, T=geom.T, U0=geom.U0, stark_enabled=True), geom)
    perfect = bs.perfect_lattice(3e17, 9, geom)
    for chain, period in ((cell, 21), (stark, 20), (perfect, 1)):
        assert _period(chain) == _period(chain.repeated()) == period
    starts, lengths = _runs(cell)
    assert starts.tolist() == [0, 1, 20] and lengths.tolist() == [1, 19, 1]
    assert _runs(stark)[1].tolist() == [1] * 9 + [2] + [1] * 9  # around the node
    for n in (1, 2, 40, 1027):
        chain = _random_flat_chain(np.random.default_rng(n), n)
        assert _period(chain) == n and _runs(chain)[1].tolist() == [1] * n
    # a prefix counts only if it repeats whole, to the end of the chain
    a, b = (1e11, 0.0, 1e-7), (2e11, 0.0, 1e-7)
    for slabs, period in (([a, b, a], 3), ([a, b, a, b, a], 5), ([a, a, a, a], 1),
                          ([a, a, b, a, a, b], 3), ([a, b, a, b, b, a], 6)):
        assert _period(bs.SlabChain(*zip(*slabs))) == period


def test_flat_default_chain_matches_periodic_chain_and_oracle(cfg, geom):
    # 600 periods of the default cell written out flat (12,600 slabs) are
    # the star power of the cell's run scan: within 1e-12 of the periodic
    # chain over the default grid, and within 1e-10 of the oracle at the
    # grid ends, the reflection peak, the transmission floor and 4 more
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    flat = chain.repeated()
    delta = bs.detuning_grid() * cfg.gamma
    periodic = bs.sweep_scatter(chain, delta, cfg, geom)
    res = bs.sweep_scatter(flat, delta, cfg, geom)
    assert np.max(np.abs(res.r - periodic.r)) <= 1e-12
    assert np.max(np.abs(res.t - periodic.t)) <= 1e-12
    points = {0, delta.size - 1, int(np.argmax(res.big_r)), int(np.argmin(res.big_t)),
              *range(150, delta.size, 250)}
    assert len(points) == 8
    for k in points:
        r_o, t_o = bs.solve_boundary_value(flat, delta[k], cfg, geom)
        assert max(abs(res.r[k] - r_o), abs(res.t[k] - t_o)) <= 1e-10


def test_run_path_memory_does_not_grow_with_its_kinds(cfg, geom):
    # 1,100 distinct runs of 12 slabs over 8,192 points, each stepped whole
    # and each after a single slab without Stark shift: a (kinds, grid)
    # table of the runs' amplitudes would take 577 MB, and a line table over
    # the runs' slabs as well as the single ones peaked at 482 MB.  The scan
    # peaks within 144 complex rows of the grid (18.9 MB)
    rng = np.random.default_rng(5)
    kinds = np.stack([rng.uniform(0.0, top, (1100, 2))
                      for top in (3e11, 5.0 * cfg.gamma, 1.5e-6)])
    kinds[1, :, 0] = 0.0
    chain = bs.SlabChain(*(np.repeat(k.ravel(), np.tile([1, 12], 1100))
                           for k in kinds))
    starts, lengths = _runs(chain)
    assert starts.size == 2200 and lengths.tolist() == [1, 12] * 1100
    delta = np.linspace(-12.0, 12.0, 8192) * cfg.gamma
    tracemalloc.start()
    try:
        bs.unit_cell_matrix(chain, delta, cfg, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 144 * 2 * delta.nbytes, peak


def _disordered_flat_chain(rng, geom):
    base = bs.two_component_lattice(3e17, 0.2, 900, 10, geom).repeated()
    return bs.SlabChain(base.surface_density * rng.uniform(0.7, 1.3, base.n_slabs),
                        base.stark_shift, base.gap_after)


def test_pairwise_flat_chains_match_oracle_and_sequential(cfg, geom):
    # one detuning over 9,900 disordered slabs takes the pairwise star tree;
    # the same detuning as a one-point grid takes the slab scan
    rng = np.random.default_rng(2024)
    for delta in rng.uniform(-3, 3, 3) * cfg.gamma:
        chain = _disordered_flat_chain(rng, geom)
        pairwise = bs.chain_matrix(chain, delta, cfg, geom)
        sequential = bs.chain_matrix(chain, np.array([delta]), cfg, geom)[0]
        assert np.max(np.abs(pairwise - sequential)) <= \
            1e-12 * np.max(np.abs(sequential))
        res = bs.scatter(pairwise)
        r_o, t_o = bs.solve_boundary_value(chain, delta, cfg, geom)
        assert abs(res.r - r_o) < 1e-10 and abs(res.t - t_o) < 1e-10


def test_opaque_chain_reflects_as_semi_infinite_lattice(cfg, geom):
    # where a long lattice transmits nothing it reflects as the semi-infinite
    # one (Deutsch et al., PRA 52, 1394 (1995)): r_inf = v1/v2 for the
    # eigenvector v of the cell matrix M whose eigenvalue lambda has the
    # larger modulus, the mode that dominates M^n, so r_inf = M12/(lambda -
    # M11).  30,000 periods of the default 21-slab cell are 630,000 slabs,
    # far past the boundary-value oracle
    chain = bs.two_component_lattice(3e17, 0.2, 30000, 20, geom)
    grid = bs.detuning_grid() * cfg.gamma
    m = bs.unit_cell_matrix(chain, grid, cfg, geom)
    res = bs.scatter(bs.chain_matrix(chain, grid, cfg, geom))
    w = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    root = np.sqrt(w * w - 1.0)
    lam = np.where(np.abs(w + root) >= np.abs(w - root), w + root, w - root)
    r_inf = m[..., 0, 1] / (lam - m[..., 0, 0])
    opaque = res.big_t < 1e-30
    assert opaque.sum() >= 100  # 103 of the 1101 points
    assert np.max(np.abs(res.r - r_inf)[opaque]) <= 1e-10


def test_transmission_below_float_range_raises(cfg, geom):
    # |t| ~ 1e-243 at 10^5 detuned periods is still a transfer matrix;
    # at 3 * 10^5 periods 1/t leaves the float range
    g8 = geom.with_lattice_mismatch(0.8e-9)
    t = bs.scatter(bs.chain_matrix(bs.perfect_lattice(3e17, 100_000, g8), 0.0,
                                   cfg, g8)).t
    assert 0.0 < abs(t) < 1e-200
    for delta in (0.0, np.zeros(2)):
        with pytest.raises(bs.EngineError, match="below the float range"):
            bs.chain_matrix(bs.perfect_lattice(3e17, 300_000, g8), delta, cfg, g8)
    # the error names the first grid index where 1/t overflows, also in a
    # chunked sweep, where it is the index in the whole grid
    far = 1e4 * cfg.gamma  # |t| ~ 1 this far off resonance
    chain = bs.perfect_lattice(3e17, 300_000, g8)
    with pytest.raises(bs.EngineError) as single:
        bs.chain_matrix(chain, 0.0, cfg, g8)
    assert single.value.index is None and str(single.value).endswith("overflows")
    for grid, index in [(np.array([far, 0.0, far, 0.0]), 1),
                        (np.array([[far, far], [far, 0.0]]), (1, 1))]:
        with pytest.raises(bs.EngineError, match=re.escape(f"at grid index {index}")):
            bs.chain_matrix(chain, grid, cfg, g8)
    grid = np.full(7, far)
    grid[5:] = 0.0
    with mock.patch.object(bs.experiments, "GRID_CHUNK", 2), \
            pytest.raises(bs.EngineError, match="below the float range") as swept:
        bs.sweep_scatter(chain, grid, cfg, g8)
    assert swept.value.index == 5 and str(swept.value).endswith("at grid index 5")


def _passive_cell(zs, phases):
    """Product of point layers (Im zeta >= 0), each followed by a gap phase."""
    m = bs.identity_matrix()
    for z, phase in zip(zs, phases):
        m = bs.matmul2(m, bs.layer_matrix(z))
        m = bs.matmul2(m, np.diag([np.exp(1j * phase), np.exp(-1j * phase)]))
    return m


_zetas = st.builds(complex, st.floats(-0.3, 0.3), st.floats(0.0, 0.3))
_phases = st.floats(0.0, 2 * math.pi)


@settings(max_examples=200, deadline=None)
@given(zs=st.lists(_zetas, min_size=1, max_size=3),
       phases=st.lists(_phases, min_size=3, max_size=3),
       scale=st.builds(lambda r, a: r * complex(math.cos(a), math.sin(a)),
                       st.floats(0.8, 1.25), _phases),
       n=st.integers(0, 40))
def test_matrix_power_equals_repeated_matmul2(zs, phases, scale, n):
    # a complex scale makes det != 1, so t' != t: the general star product
    cell = scale * _passive_cell(zs, phases)
    ref = bs.identity_matrix()
    for _ in range(n):
        ref = bs.matmul2(ref, cell)
    got = bs.matrix_power(cell, n)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def _stacked_star(a, b):
    """The star product's four rows, computed apart and then stacked."""
    r1, t1, p1, u1 = a
    r2, t2, p2, u2 = b
    inv = 1.0 / (1.0 - p1 * r2)
    return np.stack((r1 + t1 * u1 * r2 * inv, t1 * t2 * inv,
                     p2 + t2 * u2 * p1 * inv, u1 * u2 * inv))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shapes=st.sampled_from([((), ()), ((1,), (1,)), ((9,), (9,)), ((9,), (1,)),
                               ((1,), (6,)), ((3, 1), (1, 5)), ((2, 4), (4,))]))
def test_star_rows_have_the_bits_of_stacked_rows(seed, shapes):
    # one-element arrays included: there an in-place product would differ
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(4,) + s) + 1j * rng.normal(size=(4,) + s)
            for s in shapes)
    got, want = _star(a, b), _stacked_star(a, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(slabs=st.lists(_slab_values, min_size=1, max_size=5),
       periods=st.integers(1, 400),
       deltas=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=4))
def test_star_power_equals_sequential_scan(cfg, geom, slabs, periods, deltas):
    # the periodic path (star power of the cell) against the flat chain
    # scanned slab by slab, over passive chains from thin to opaque
    chain = _periodic_chain(slabs, periods, cfg.gamma)
    delta = np.array(deltas) * cfg.gamma
    fast = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
    slow = bs.scatter(bs.chain_matrix(chain.repeated(), delta, cfg, geom))
    assert np.max(np.abs(fast.r - slow.r)) < 1e-10
    assert np.max(np.abs(fast.t - slow.t)) < 1e-10


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10**6), density=st.floats(0.0, 3e11),
       delta=st.floats(-40.0, 15.0), single_line=st.booleans())
def test_bragg_phase_star_power_has_the_closed_form(cfg, cfg1, geom, n, density,
                                                    delta, single_line):
    # N point layers whose gaps carry the Bragg phase phi ~ pi: the gap is -I
    # and a layer I + i zeta K with K^2 = 0, so r_N = iN zeta / (1 - iN zeta)
    # and t_N = e^{iN phi} / (1 - iN zeta) for every complex zeta.  Every
    # such cell is a band edge, where rounding adds up linearly in N
    response = cfg1 if single_line else cfg
    half = geom.lambda_dip / 2.0
    phi = geom.k_brg * half * math.cos(geom.beta_i)
    chain = bs.SlabChain([density], [0.0], [half], periods=n)
    d = delta * response.gamma
    niz = n * 1j * bs.zeta(density, d, response)
    r_n, t_n = niz / (1.0 - niz), np.exp(1j * (n * phi)) / (1.0 - niz)
    for x in (d, np.array([d])):
        res = bs.scatter(bs.chain_matrix(chain, x, response, geom))
        assert np.all(np.abs(res.r - r_n) <= 1e-15 * n)
        assert np.all(np.abs(res.t - t_n) <= 1e-15 * n)


def _reference_profile(chain, delta, samples_per_gap, r, cfg, geom):
    """The per-slab field recurrence, one gap at a time."""
    flat = chain.repeated()
    k_z = geom.k_brg * math.cos(geom.beta_i)
    e_plus, e_minus = 1.0 + 0.0j, r
    zs, intensity = [np.array([0.0])], [np.array([abs(e_plus + e_minus) ** 2])]
    z0 = 0.0
    slab_z = np.atleast_1d(bs.zeta(flat.surface_density, delta - flat.stark_shift,
                                   cfg))
    fractions = np.arange(1, samples_per_gap + 1) / samples_per_gap
    for j in range(flat.n_slabs):
        iz = 1j * slab_z[j]
        e_plus, e_minus = ((1.0 + iz) * e_plus + iz * e_minus,
                           -iz * e_plus + (1.0 - iz) * e_minus)
        g = flat.gap_after[j]
        if g > 0.0:
            s = fractions * g
            phase = np.exp(1j * k_z * s)
            zs.append(z0 + s)
            intensity.append(np.abs(e_plus * phase + e_minus / phase) ** 2)
            e_plus = e_plus * phase[-1]
            e_minus = e_minus / phase[-1]
            z0 += g
    return np.concatenate(zs), np.concatenate(intensity)


def test_field_profile_equals_reference_loop_bitwise(cfg, geom):
    # 2,100 gapped slabs at 64 samples fill more than one vectorized block;
    # the second chain has Stark shifts and zero gaps.  z keeps the bits of
    # the loop; the star-scan amplitudes match its recurrence to rounding
    stark = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=30, n_ss=20, T=geom.T, U0=geom.U0, stark_enabled=True), geom)
    stark = bs.SlabChain(stark.surface_density, stark.stark_shift,
                         np.where(np.arange(stark.n_slabs) % 3 == 0, 0.0,
                                  stark.gap_after), periods=30)
    for chain, spg in ((bs.two_component_lattice(3e17, 0.2, 100, 20, geom), 64),
                       (stark, 8)):
        for delta in (0.0, -1.3 * cfg.gamma):
            r = bs.scatter(bs.chain_matrix(chain.repeated(), delta, cfg, geom)).r
            z, intensity = bs.field_profile(chain, delta, spg, cfg, geom)
            z_ref, i_ref = _reference_profile(chain, delta, spg, r, cfg, geom)
            assert z.tobytes() == z_ref.tobytes()
            assert np.max(np.abs(intensity / i_ref - 1.0)) <= 1e-11


def _doubling_scan(s):
    """The written-out inclusive star scan of (4, n) amplitudes by doubling
    (Hillis-Steele): every round combines every column with the one k before."""
    s = s.copy()
    k = 1
    while k < s.shape[1]:
        s[:, k:] = _star(s[:, :-k], s[:, k:])
        k *= 2
    return s


def _reference_block_profile(chain, delta, samples_per_gap, cfg, geom):
    """field_profile with one complex exponential per sample in each block."""
    flat = chain.repeated()
    k_z = geom.k_brg * math.cos(geom.beta_i)
    gaps = flat.gap_after
    gapped = gaps > 0.0
    exits = np.exp(1j * k_z * gaps)
    slabs = _slabs(flat.surface_density, flat.stark_shift, delta, cfg, exits)
    right = _doubling_scan(slabs[[2, 3, 0, 1], ::-1])[[2, 3, 0, 1], ::-1]
    left = _doubling_scan(slabs)
    r_right = np.append(right[0, 1:], 0.0)
    e_plus = left[1] / (1.0 - left[2] * r_right)
    g = gaps[gapped]
    e_in = np.stack((e_plus / exits, r_right * e_plus * exits))[:, gapped]
    starts = np.concatenate([[0.0], np.cumsum(g)[:-1]])
    fractions = np.arange(1, samples_per_gap + 1) / samples_per_gap
    z = np.empty(1 + g.size * samples_per_gap)
    intensity = np.empty_like(z)
    z[0], intensity[0] = 0.0, abs(1.0 + right[0, 0]) ** 2
    step = max(1, engine.PROFILE_BLOCK // samples_per_gap)
    for b0 in range(0, g.size, step):
        b = slice(b0, b0 + step)
        s = fractions * g[b, None]
        phase = np.exp(1j * k_z * s)
        field = e_in[0, b, None] * phase + e_in[1, b, None] / phase
        out = slice(1 + b0 * samples_per_gap, 1 + (b0 + len(s)) * samples_per_gap)
        z[out] = (starts[b, None] + s).ravel()
        intensity[out] = (np.abs(field) ** 2).ravel()
    return z, intensity


def _profile_gaps(rng, n, widths, zeros):
    """n gaps: `widths` distinct values (0: all jittered apart), zero where
    `zeros` says (first, last, inside)."""
    if widths:
        gaps = rng.choice(rng.uniform(1e-8, 1.5e-6, widths), n)
    else:
        gaps = 3.9e-7 * (1.0 + 1e-3 * rng.random(n))
    first, last, inside = zeros
    gaps[0] = 0.0 if first else gaps[0]
    gaps[-1] = 0.0 if last else gaps[-1]
    if inside and n > 2:
        gaps[1:-1][rng.random(n - 2) < 0.3] = 0.0
    return gaps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       widths=st.integers(0, 3), zeros=st.tuples(st.booleans(), st.booleans(),
                                                   st.booleans()),
       periods=st.integers(1, 3), spg=st.sampled_from([2, 3, 64]),
       gaps_per_block=st.integers(0, 5), delta=st.floats(-12.0, 12.0))
def test_field_profile_equals_block_loop_bitwise(cfg, geom, seed, n, widths, zeros,
                                                 periods, spg, gaps_per_block,
                                                 delta):
    # the per-width phase table gathers the samples' phases of the loop with
    # one exponential per sample, so z and the intensity keep every bit: in
    # one-gap blocks, ragged last blocks, and (gaps_per_block = 0) blocks
    # smaller than one gap's samples
    rng = np.random.default_rng(seed)
    chain = bs.SlabChain(rng.uniform(0.0, 3e11, n),
                         rng.uniform(-5.0, 5.0, n) * cfg.gamma,
                         _profile_gaps(rng, n, widths, zeros), periods=periods)
    block = gaps_per_block * spg or spg - 1
    with mock.patch.object(engine, "PROFILE_BLOCK", block):
        z, intensity = bs.field_profile(chain, delta * cfg.gamma, spg, cfg, geom)
        z_ref, i_ref = _reference_block_profile(chain, delta * cfg.gamma, spg,
                                                cfg, geom)
    assert z.tobytes() == z_ref.tobytes()
    assert intensity.tobytes() == i_ref.tobytes()


def _gap_phases(chain, geom):
    return np.exp(1j * (geom.k_brg * math.cos(geom.beta_i)) * chain.gap_after)


@pytest.mark.parametrize("delta", [0.0, -1.3])
def test_slab_amplitudes_keep_their_bits_past_16384_slabs(cfg, geom, delta):
    # from 2^14 complex values on, numpy multiplies an unnamed temporary in
    # place: iz * (g * g) * q was computed as (g * g) * iz, and with FMA the
    # complex product does not commute bit for bit.  One period computed
    # alone and tiled must have the bits of the whole chain
    rng = np.random.default_rng(3)
    stark = _random_flat_chain(rng, 17)
    for cell, periods in ((bs.two_component_lattice(3e17, 0.2, 1, 10, geom), 1500),
                          (stark, 1000)):
        flat = bs.SlabChain(cell.surface_density, cell.stark_shift, cell.gap_after,
                            periods=periods).repeated()
        whole = _slabs(flat.surface_density, flat.stark_shift, delta * cfg.gamma,
                       cfg, _gap_phases(flat, geom))
        one = _slabs(cell.surface_density, cell.stark_shift, delta * cfg.gamma, cfg,
                     _gap_phases(cell, geom))
        assert whole.shape[1] > 1 << 14
        assert whole.tobytes() == np.tile(one, periods).tobytes()


@pytest.mark.parametrize("cell, periods", [
    (1, 17_000), (1, 100),     # p = 1 on both sides of 2^14 columns
    (11, 1500), (21, 600),     # proper divisors
    (16_500, 1), (300, 1),     # p = n
])
def test_periodic_scan_equals_the_written_out_scan_bitwise(cfg, geom, cell, periods):
    # any p that divides n and that the columns repeat: the shortest period,
    # three of them, and n itself; on the slabs and on their mirror
    chain = _random_flat_chain(np.random.default_rng(cell), cell)
    s = np.tile(_slabs(chain.surface_density, chain.stark_shift, 0.4 * cfg.gamma, cfg,
                       _gap_phases(chain, geom)), periods)
    n = s.shape[1]
    for inputs in (lambda: s.copy(), lambda: s[[2, 3, 0, 1], ::-1]):
        expected = _doubling_scan(inputs()).tobytes()
        for p in {q for q in (cell, 3 * cell, n) if n % q == 0}:
            assert _prefixes(inputs(), p).tobytes() == expected, p


def test_field_profile_scans_one_period_per_round(cfg, geom):
    # a scan of n columns that repeat every p calls _star on at most
    # 2n + p log2(n) columns (written out, n log2(n)); count them in both
    # scans of the default chain
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    n, p = chain.total_slabs, chain.n_slabs
    columns = []

    def counting_star(a, b):
        columns.append(np.broadcast_shapes(np.shape(a[0]), np.shape(b[0]))[0])
        return _star(a, b)

    with mock.patch.object(engine, "_star", counting_star):
        bs.field_profile(chain, 0.3 * cfg.gamma, 2, cfg, geom)
    assert len(columns) == 2 * math.ceil(math.log2(n))
    assert sum(columns) <= 2 * (2 * n + p * math.log2(n)), sum(columns)


@pytest.mark.parametrize("periods, n_ss", [(600, 20), (1500, 10), (3000, 10)])
def test_long_periodic_profiles_equal_the_written_out_scan_bitwise(cfg, geom, periods,
                                                                   n_ss):
    # 12,600, 16,500 and 33,000 slabs: one period of slab amplitudes and gap
    # phases, tiled, and the periodic scans keep every bit of the whole chain
    chain = bs.two_component_lattice(3e17, 0.2, periods, n_ss, geom)
    for delta in (0.0, -1.3 * cfg.gamma):
        z, intensity = bs.field_profile(chain, delta, 2, cfg, geom)
        z_ref, i_ref = _reference_block_profile(chain, delta, 2, cfg, geom)
        assert z.tobytes() == z_ref.tobytes()
        assert intensity.tobytes() == i_ref.tobytes()


def test_field_profile_memory_is_bounded_by_its_blocks(cfg, geom):
    # every one of the 4,000 gap widths is distinct, so a phase table of the
    # whole chain would hold 4,000 x 64 offsets and phases (6 MB) on top of
    # the outputs; the profile holds the outputs, the scans' state (~260 B
    # per slab) and a few block-sized temporaries
    n, spg = 4000, 64
    gaps = _profile_gaps(np.random.default_rng(5), n, 0, (False, False, False))
    assert np.unique(gaps).size == n
    chain = bs.SlabChain(np.full(n, 3e11), np.zeros(n), gaps)
    tracemalloc.start()
    try:
        z, intensity = bs.field_profile(chain, 0.3 * cfg.gamma, spg, cfg, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = z.nbytes + intensity.nbytes + 320 * n + 6 * 16 * engine.PROFILE_BLOCK
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("periods", [1, 3])
@pytest.mark.parametrize("gaps", [
    [0.5, 0.5, 0.5, 0.5],                 # gapped slabs only
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5],  # zero-gap slabs in front
    [0.0, 0.5],                           # a zero gap in every period
])
def test_zero_reflection_has_zero_phase(cfg, geom, gaps, periods):
    # an atom-free chain reflects nothing; arctan2 of the signed zeros of r
    # gave -0 or -pi depending on the gaps
    n = len(gaps)
    chain = bs.SlabChain(np.zeros(n), np.zeros(n),
                         np.array(gaps) * geom.lambda_dip, periods=periods)
    grid = bs.detuning_grid(-2, 2, 5)
    for phi in (bs.spectrum(chain, grid, cfg, geom).phi,
                bs.scatter(bs.chain_matrix(chain, 0.3 * cfg.gamma, cfg, geom)).phi):
        phi = np.asarray(phi)
        assert np.all(phi == 0.0) and not np.any(np.signbit(phi))
