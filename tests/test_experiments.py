import math

import numpy as np
import pytest

import braggstack as bs
from braggstack.experiments import GRID_CHUNK


def test_spectrum_zero_density(cfg, geom):
    chain = bs.SlabChain(np.zeros(10), np.zeros(10),
                         np.full(10, geom.lambda_dip / 2))
    grid = bs.detuning_grid(-5, 5, 51)
    table = bs.spectrum(chain, grid, cfg, geom)
    np.testing.assert_array_equal(table.R, 0.0)
    np.testing.assert_array_equal(table.T, 1.0)
    np.testing.assert_array_equal(table.A, 0.0)


def test_spectrum_sum_rule_exact(cfg, geom):
    # A is constructed as 1 - (R + T); re-summing stays at machine precision
    chain = bs.two_component_lattice(3e17, 0.2, 300, 10, geom)
    table = bs.spectrum(chain, bs.detuning_grid(-10, 5, 151), cfg, geom)
    np.testing.assert_allclose(table.R + table.T + table.A, 1.0, rtol=0, atol=5e-16)
    assert np.all(table.A >= -1e-9)


def test_spectrum_rejects_empty_grid(cfg, geom):
    with pytest.raises(ValueError):
        bs.spectrum(bs.perfect_lattice(3e17, 2, geom), np.array([]), cfg, geom)


def test_spectrum_reports_offending_grid_point(cfg, geom):
    # deep in the opaque stop band of a detuned lattice the chain elements
    # blow past the guard near resonance but not far away; the error must
    # name the first failing grid point
    g8 = geom.with_lattice_mismatch(0.8e-9)
    chain = bs.perfect_lattice(3e17, 20_000, g8)
    grid = bs.detuning_grid(-40, 15, 23)
    with pytest.raises(bs.OverflowGuardError, match=r"grid point: index \d+"):
        bs.spectrum(chain, grid, cfg, g8)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# more than two chunks, the last one ragged
WIDE_GRID = bs.detuning_grid(-40, 15, 2 * GRID_CHUNK + 123)


@pytest.mark.parametrize("stark", [False, True])
def test_sweep_chunks_match_full_array_bitwise(cfg, geom, stark):
    chain = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=600, n_ss=20, T=geom.T, U0=geom.U0, stark_enabled=stark), geom)
    delta = WIDE_GRID * cfg.gamma
    chunked = bs.sweep_scatter(chain, delta, cfg, geom)
    full = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
    for name in ("r", "t", "big_r", "big_t", "big_a", "phi"):
        assert _same_bits(getattr(chunked, name), getattr(full, name)), name


def test_band_structure_chunks_match_full_array_bitwise(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    theta, rho = bs.band_structure(chain, WIDE_GRID, cfg, geom)
    ref = np.atleast_1d(bs.bloch_phase(
        bs.unit_cell_matrix(chain, WIDE_GRID * cfg.gamma, cfg, geom)))
    ref = np.unwrap(ref.real) + 1j * ref.imag
    assert _same_bits(theta, ref)
    assert _same_bits(rho, bs.density_of_states(WIDE_GRID, ref))


def test_sweep_scalar_detuning_gives_scalar_result(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 100, 8, geom)
    res = bs.sweep_scatter(chain, 0.5 * cfg.gamma, cfg, geom)
    assert isinstance(res.r, complex) and isinstance(res.big_r, float)
    assert res == bs.scatter(bs.chain_matrix(chain, 0.5 * cfg.gamma, cfg, geom))


def test_sweep_reports_global_grid_index_past_first_chunk(cfg, geom):
    # the first chunk passes; the failure sits in the second one and must be
    # reported by its index in the whole grid
    g8 = geom.with_lattice_mismatch(0.8e-9)
    chain = bs.perfect_lattice(3e17, 20_000, g8)
    tail = bs.detuning_grid(-40, 15, 23)
    first_bad = None
    for i, d in enumerate(tail):
        try:
            bs.scatter(bs.chain_matrix(chain, d * cfg.gamma, cfg, g8))
        except bs.OverflowGuardError:
            first_bad = i
            break
    assert first_bad is not None
    grid = np.concatenate([np.full(GRID_CHUNK + 5, -40.0), tail])
    with pytest.raises(bs.OverflowGuardError,
                       match=rf"grid point: index {GRID_CHUNK + 5 + first_bad},"):
        bs.sweep_scatter(chain, grid * cfg.gamma, cfg, g8)


def test_oracle_matches_engine_on_random_chains(cfg, geom):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        chain = bs.SlabChain(rng.uniform(0, 3e11, n),
                             rng.uniform(-5, 5, n) * cfg.gamma,
                             rng.uniform(0, 1.5e-6, n))
        delta = rng.uniform(-12, 12) * cfg.gamma
        res = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
        r_o, t_o = bs.solve_boundary_value(chain, delta, cfg, geom)
        worst = max(worst, abs(res.r - r_o), abs(res.t - t_o))
    assert worst < 1e-10


def test_oracle_single_slab_closed_form(cfg, geom):
    chain = bs.SlabChain([1.215e11], [0.0], [geom.lambda_dip / 2])
    r, t = bs.solve_boundary_value(chain, 0.0, cfg, geom)
    z = bs.zeta(1.215e11, 0.0, cfg)
    assert abs(r - 1j * z / (1 - 1j * z)) < 1e-12
    assert abs(abs(t) - abs(1 / (1 - 1j * z))) < 1e-12


def test_oracle_empty_chain(cfg, geom):
    chain = bs.SlabChain(np.zeros(0), np.zeros(0), np.zeros(0))
    assert bs.solve_boundary_value(chain, 0.0, cfg, geom) == (0.0, 1.0)


def test_oracle_handles_periodic_chains(cfg, geom):
    chain = bs.perfect_lattice(3e17, 37, geom)
    res = bs.scatter(bs.chain_matrix(chain, 1.0 * cfg.gamma, cfg, geom))
    r_o, t_o = bs.solve_boundary_value(chain, 1.0 * cfg.gamma, cfg, geom)
    assert abs(res.r - r_o) < 1e-10 and abs(res.t - t_o) < 1e-10


def test_detected_powers_reference(cfg, geom):
    res = bs.ScatterResult(r=0j, t=0j, big_r=0.3, big_t=0.5, big_a=0.2, phi=0.0)
    reading = bs.detected_powers(res, 0.16, 30e-6)
    assert reading.p_r == pytest.approx(1.44e-6, rel=1e-12)
    assert reading.p_r + reading.p_t + reading.p_a == pytest.approx(30e-6, rel=1e-12)


def test_detected_powers_transparent_limit():
    res = bs.ScatterResult(r=0j, t=1 + 0j, big_r=0.0, big_t=1.0, big_a=0.0, phi=0.0)
    reading = bs.detected_powers(res, 0.16, 30e-6)
    assert reading.p_t == pytest.approx(30e-6)
    assert reading.p_r == 0.0 and reading.p_a == 0.0


def test_detected_powers_sum_rule_on_spectrum(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 100, 8, geom)
    res = bs.sweep_scatter(chain, bs.detuning_grid(-5, 5, 41) * cfg.gamma, cfg, geom)
    reading = bs.detected_powers(res, 0.16, 30e-6)
    np.testing.assert_allclose(reading.p_r + reading.p_t + reading.p_a,
                               30e-6, rtol=1e-12)


def test_detected_powers_eta_bounds():
    res = bs.ScatterResult(0j, 1 + 0j, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bs.detected_powers(res, 1.5, 1.0)


def test_saturation_scan_quadratic_then_saturating(cfg, geom):
    numbers = np.logspace(4, math.log10(4e7), 12)
    _, max_r = bs.saturation_scan(numbers, geom, cfg, n_s=400, f_dw=0.2, n_ss=10)
    assert np.all(np.diff(max_r) > 0)
    # quadratic at low atom number
    _, pair = bs.saturation_scan([1e4, 1e5], geom, cfg, n_s=400, f_dw=0.2, n_ss=10)
    assert pair[1] / pair[0] == pytest.approx(100.0, rel=0.05)
    # diminishing gain per decade at the top of the range
    first_gain = max_r[4] / max_r[0]
    last_gain = max_r[-1] / max_r[-5]
    assert last_gain < 0.25 * first_gain
    assert bs.saturation_scan([0.0], geom, cfg)[1][0] == 0.0


def test_atom_number_density_mapping(geom):
    sigma_r = geom.derived().sigma_r
    volume = 10_000 * (geom.lambda_dip / 2) * 2 * math.pi * sigma_r ** 2
    assert bs.atom_number_to_density(1e7, geom) == pytest.approx(1e7 / volume)


def test_lattice_constant_scan_family(cfg1, geom):
    grid = bs.detuning_grid(-10, 10, 161)
    dls = (-0.4e-9, 0.0, 0.4e-9)
    # hold the per-layer surface density fixed so the pure interference
    # mirror is visible (n*lambda_dip/2 otherwise tracks the mismatch)
    sd_target = 3e17 * geom.lambda_brg / math.cos(geom.beta_i) / 2
    build = lambda g: bs.perfect_lattice(2 * sd_target / g.lambda_dip, 150, g)
    tables = bs.lattice_constant_scan(dls, build, grid, cfg1, geom)
    assert len(tables) == 3
    # matched, Stark-free lattice: spectrum symmetric about the line center
    mid = tables[1]
    np.testing.assert_allclose(mid.R, mid.R[::-1], atol=1e-9)
    # +-mismatch pair mirrors in peak height
    assert tables[0].R.max() == pytest.approx(tables[2].R.max(), rel=1e-6)


def test_radial_average_limits(cfg, geom):
    grid = bs.detuning_grid(-6, 6, 81)
    build = lambda n: bs.two_component_lattice(n, 0.2, 200, 8, geom)
    plain = bs.spectrum(build(3e17), grid, cfg, geom)
    one = bs.radial_average(3e17, geom.derived().sigma_r, 1, build, grid, cfg, geom)
    np.testing.assert_array_equal(one.R, plain.R)
    flat = bs.radial_average(3e17, math.inf, 5, build, grid, cfg, geom)
    np.testing.assert_allclose(flat.R, plain.R, atol=1e-9)


def test_radial_average_softens_dip(cfg, geom):
    grid = bs.detuning_grid(-6, 6, 241)
    build = lambda n: bs.two_component_lattice(n, 0.2, 600, 8, geom)
    plain = bs.spectrum(build(3e17), grid, cfg, geom)
    avg = bs.radial_average(3e17, geom.derived().sigma_r, 8, build, grid, cfg, geom)
    i0 = np.argmin(np.abs(grid))
    iside = np.argmin(np.abs(grid - 3))

    def dip_contrast(table):
        return table.R[iside] - table.R[i0]

    assert dip_contrast(avg) < dip_contrast(plain)


def test_radial_average_phase_is_phase_of_mean_amplitude(cfg, geom):
    grid = bs.detuning_grid(-8, 8, 161)
    build = lambda n: bs.two_component_lattice(n, 0.2, 600, 20, geom)
    sigma_r = geom.derived().sigma_r
    n_rings = 8
    avg = bs.radial_average(3e17, sigma_r, n_rings, build, grid, cfg, geom)
    rings = []
    for k in range(n_rings):
        rho = 2.5 * sigma_r * math.sqrt(k / n_rings)
        rings.append(bs.spectrum(
            build(3e17 * math.exp(-rho**2 / (2.0 * sigma_r**2))), grid, cfg, geom))
    big_r = sum(t.R for t in rings) / n_rings
    assert _same_bits(avg.R, big_r)
    r_mean = sum(np.sqrt(t.R) * np.exp(1j * t.phi) for t in rings) / n_rings
    np.testing.assert_allclose(np.exp(1j * avg.phi), r_mean / np.abs(r_mean),
                               rtol=0, atol=1e-12)
    # at -0.1 Gamma the ring phases straddle the branch cut (-3.13 .. 3.03);
    # their arithmetic mean (0.75 rad) points nowhere near the mean amplitude
    i = int(np.argmin(np.abs(grid + 0.1)))
    phases = [t.phi[i] for t in rings]
    assert max(phases) - min(phases) > math.pi
    assert avg.phi[i] == pytest.approx(3.113, abs=1e-3)


def test_band_structure_stop_band_and_dos(cfg1, geom):
    # scan the lattice constant through the band edge at fixed real strength
    kz = geom.k_brg * math.cos(geom.beta_i)
    eps = np.linspace(-0.08, 0.04, 601)
    cells = np.stack([
        bs.matmul2(bs.layer_matrix(0.02),
                   bs.gap_matrix((math.pi + e) / kz, geom.k_brg, geom.beta_i))
        for e in eps])
    theta = bs.bloch_phase(cells)
    rho = bs.density_of_states(eps, theta)
    ingap = theta.imag > 1e-9
    assert ingap.any() and (~ingap).any()
    # expected window: -2*zeta < eps < 0
    assert eps[ingap].max() < 0.0
    assert eps[ingap].min() == pytest.approx(-0.04, abs=2e-3)
    assert np.all(rho[ingap] == 0.0)
    assert rho[~ingap].max() > 0.0


def test_band_structure_of_physical_chain(cfg1, geom):
    # absorptive cells decay everywhere: Im(theta) > 0 swamps the 1e-9 gap
    # threshold, so the DOS diagnostic is meaningful for lossless cells only
    g8 = geom.with_lattice_mismatch(0.8e-9)
    chain = bs.perfect_lattice(3e17, 100, g8)
    grid = bs.detuning_grid(-10, 10, 401)
    theta, rho = bs.band_structure(chain, grid, cfg1, g8)
    assert np.all(np.isfinite(theta))
    assert np.all(theta.imag >= 0.0)
    assert np.all(rho[theta.imag > 1e-9] == 0.0)
    # strongest decay near the atomic resonance
    assert abs(grid[np.argmax(theta.imag)]) < 2.0


def test_absorption_splits_for_detuned_lattice(cfg1, geom):
    # deep in the opaque regime with a detuned lattice constant, absorption
    # develops two peaks at the stop-band edges with a suppressed interior;
    # at the exactly matched angle the cell trace is pinned to the band edge
    # (cos theta = -1 for every detuning) and no such split can open
    g8 = geom.with_lattice_mismatch(0.8e-9)
    grid = np.linspace(-6, 12, 721)
    res = bs.sweep_scatter(bs.perfect_lattice(3e17, 2000, g8),
                           grid * cfg1.gamma, cfg1, g8)
    peaks = bs.reflection_minima(grid, -res.big_a, prominence=1e-2)
    assert len(peaks) >= 2
    interior = res.big_a[peaks[0]:peaks[-1] + 1].min()
    assert interior < 0.6 * res.big_a[peaks[0]]
    assert interior < 0.6 * res.big_a[peaks[-1]]
    matched = bs.sweep_scatter(bs.perfect_lattice(3e17, 2000, geom),
                               grid * cfg1.gamma, cfg1, geom)
    assert len(bs.reflection_minima(grid, -matched.big_a, prominence=1e-3)) == 1


def test_reflection_minima_tool():
    x = np.linspace(-5, 5, 201)
    y = 0.5 + 0.1 * np.cos(2 * x)
    idx = bs.reflection_minima(x, y, prominence=1e-3)
    np.testing.assert_allclose(x[idx], [-3 * math.pi / 2, -math.pi / 2,
                                        math.pi / 2, 3 * math.pi / 2], atol=0.05)
    idx = bs.reflection_minima(x, y, prominence=1e-3, window=(0, 2))
    assert len(idx) == 1 and abs(x[idx[0]] - math.pi / 2) < 0.05
