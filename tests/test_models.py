import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import braggstack as bs


def thermal_cfg(geom, n=3e17, n_s=50, n_ss=20, stark=True, form="harmonic", T=None):
    return bs.ThermalModelConfig(n=n, n_s=n_s, n_ss=n_ss,
                                 T=geom.T if T is None else T,
                                 U0=geom.U0, stark_enabled=stark,
                                 potential_form=form)


def test_perfect_lattice_layout(geom):
    chain = bs.perfect_lattice(3e17, 5, geom)
    assert chain.periods == 5 and chain.n_slabs == 1
    assert chain.surface_density[0] == pytest.approx(1.215e11, rel=1e-6)
    assert chain.gap_after[0] == geom.lambda_dip / 2
    assert chain.stark_shift[0] == 0.0


def test_perfect_lattice_single_layer_closed_form(cfg, geom):
    chain = bs.perfect_lattice(3e17, 1, geom)
    res = bs.scatter(bs.chain_matrix(chain, 0.0, cfg, geom))
    z = bs.zeta(1.215e11, 0.0, cfg)
    assert abs(res.r - 1j * z / (1 - 1j * z)) < 1e-12


def test_perfect_lattice_opaque_at_large_n(cfg1, geom):
    chain = bs.perfect_lattice(3e17, 1500, geom)
    deltas = np.linspace(-2, 2, 41) * cfg1.gamma
    res = bs.sweep_scatter(chain, deltas, cfg1, geom)
    assert np.all(res.big_t < 0.05)
    assert np.all(res.big_r > 0.8)


def test_atom_number_conservation_all_models(cfg, geom):
    half = geom.lambda_dip / 2
    target = 3e17 * half
    for chain in (
        bs.perfect_lattice(3e17, 3, geom),
        bs.sequential_lattice(thermal_cfg(geom), geom),
        bs.sequential_lattice(thermal_cfg(geom, form="sinusoidal"), geom),
        bs.sequential_lattice(thermal_cfg(geom, T=0.0), geom),
        bs.two_component_lattice(3e17, 0.2, 3, 16, geom),
        bs.two_component_lattice(3e17, 1.0, 3, 16, geom),
    ):
        assert float(np.sum(chain.surface_density)) == pytest.approx(target, rel=1e-6)
        assert float(np.sum(chain.gap_after)) == pytest.approx(half, rel=1e-12)


def test_local_density_flat_potential(geom):
    # U0 -> 0 leaves a homogeneous gas at the mean density
    cfg = bs.ThermalModelConfig(n=3e17, n_s=1, n_ss=20, T=200e-6, U0=1e-6)
    zs = bs.sublayer_positions(20, geom.lambda_dip)
    np.testing.assert_allclose(bs.local_density(zs, cfg, geom), 3e17, rtol=1e-6)


def test_local_density_gaussian_profile(geom):
    # harmonic well: Boltzmann profile is the Gaussian with rms sigma_z
    cfg = thermal_cfg(geom, n_ss=64)
    sigma_z = bs.axial_width(geom.T, geom.U0, geom.lambda_dip)
    zs = bs.sublayer_positions(64, geom.lambda_dip)
    got = bs.local_density(zs, cfg, geom)
    ratio = got / got.max()
    expected = np.exp(-zs ** 2 / (2 * sigma_z ** 2))
    np.testing.assert_allclose(ratio, expected / expected.max(), rtol=1e-10)


def test_local_density_requires_positive_temperature(geom):
    cfg = thermal_cfg(geom, T=0.0)
    with pytest.raises(ValueError):
        bs.local_density(0.0, cfg, geom)


def test_sequential_t0_concentrates_center(geom):
    chain = bs.sequential_lattice(thermal_cfg(geom, T=0.0, n_ss=21), geom)
    sd = chain.surface_density
    assert np.count_nonzero(sd) == 1
    assert sd[10] == pytest.approx(3e17 * geom.lambda_dip / 2)
    assert chain.stark_shift[10] == geom.U0


@pytest.mark.parametrize("T", [1e-7, 1e-9, 1e-12])
@pytest.mark.parametrize("n_ss", [4, 5, 20, 21])
def test_sequential_low_temperature_approaches_t0(geom, T, n_ss):
    # every Boltzmann weight on the midpoints underflows at these T unless
    # taken relative to the lowest midpoint energy: the densities stay finite
    # and sum to n*lambda_dip/2, held by the midpoint(s) nearest the well,
    # where the T = 0 builder puts them (an even n_ss has two, equally near)
    total = 3e17 * geom.lambda_dip / 2
    sd = bs.sequential_lattice(thermal_cfg(geom, n_s=10, n_ss=n_ss, T=T),
                               geom).surface_density
    t0 = bs.sequential_lattice(thermal_cfg(geom, n_s=10, n_ss=n_ss, T=0.0),
                               geom).surface_density
    assert np.all(np.isfinite(sd))
    assert float(np.sum(sd)) == pytest.approx(total, rel=1e-12)
    if n_ss % 2:
        np.testing.assert_allclose(sd, t0, rtol=0, atol=1e-12 * total)
    else:
        centre = sd[n_ss // 2 - 1:n_ss // 2 + 1]
        np.testing.assert_allclose(centre, t0[n_ss // 2] / 2, rtol=1e-6)


def test_sequential_nss1_reduces_to_perfect(cfg, geom):
    seq = bs.sequential_lattice(thermal_cfg(geom, n_ss=1, stark=False, T=0.0), geom)
    per = bs.perfect_lattice(3e17, 50, geom)
    deltas = np.linspace(-5, 5, 21) * cfg.gamma
    a = bs.sweep_scatter(seq, deltas, cfg, geom)
    b = bs.sweep_scatter(per, deltas, cfg, geom)
    np.testing.assert_allclose(a.big_r, b.big_r, atol=1e-12)


def test_stark_shifts_use_local_depth(geom):
    chain = bs.sequential_lattice(thermal_cfg(geom, n_ss=21, form="sinusoidal"), geom)
    zs = bs.sublayer_positions(21, geom.lambda_dip)
    expected = geom.U0 * np.cos(geom.k_dip * zs) ** 2
    np.testing.assert_allclose(chain.stark_shift, expected, rtol=1e-12)
    off = bs.sequential_lattice(thermal_cfg(geom, stark=False), geom)
    assert np.all(off.stark_shift == 0.0)


def test_t0_stark_blue_shift(cfg1, geom):
    # frozen lattice with Stark on: perfect-lattice spectrum moved up by U0
    grid = bs.detuning_grid(-5, 10, 601)
    seq = bs.sequential_lattice(thermal_cfg(geom, n=1e16, n_s=80, n_ss=21, T=0.0), geom)
    per = bs.perfect_lattice(1e16, 80, geom)
    ts = bs.spectrum(seq, grid, cfg1, geom)
    tp = bs.spectrum(per, grid, cfg1, geom)
    shift_steps = (geom.U0 / cfg1.gamma) / (grid[1] - grid[0])
    assert abs(np.argmax(ts.R) - np.argmax(tp.R) - shift_steps) <= 1.0


def test_two_component_f1_equals_perfect(cfg, geom):
    two = bs.two_component_lattice(3e17, 1.0, 40, 12, geom)
    per = bs.perfect_lattice(3e17, 40, geom)
    deltas = np.linspace(-4, 4, 17) * cfg.gamma
    a = bs.sweep_scatter(two, deltas, cfg, geom)
    b = bs.sweep_scatter(per, deltas, cfg, geom)
    np.testing.assert_allclose(a.big_r, b.big_r, atol=1e-12)
    np.testing.assert_allclose(a.big_a, b.big_a, atol=1e-12)


def test_two_component_f0_beer_lambert(cfg, geom):
    # pure disorder: transmitted intensity decays with the penetration depth
    chain = bs.two_component_lattice(3e17, 0.0, 120, 10, geom)
    res = bs.scatter(bs.chain_matrix(chain, 0.0, cfg, geom))
    length = 120 * geom.lambda_dip / 2
    z_pd = bs.penetration_depth(3e17, 0.0, bs.cross_section(0.0, cfg))
    assert res.big_t == pytest.approx(math.exp(-length / z_pd), rel=0.05)


def test_two_component_spectra_converge_quadratically_in_n_ss(cfg, geom):
    # the n_ss sublayers stand in for a homogeneous background: on the
    # default grid the largest change of R and of T from n_ss to 2 n_ss
    # shrinks about fourfold per doubling of n_ss (second order)
    grid = bs.detuning_grid()
    spectra = [bs.spectrum(bs.two_component_lattice(3e17, 0.2, 600, n_ss, geom),
                           grid, cfg, geom) for n_ss in (10, 20, 40, 80, 160)]
    for col in ("R", "T"):
        steps = [np.max(np.abs(getattr(a, col) - getattr(b, col)))
                 for a, b in zip(spectra, spectra[1:])]
        for coarse, fine in zip(steps, steps[1:]):
            assert 3.0 <= coarse / fine <= 5.0, (col, steps)


def test_two_component_monotone_disorder(cfg, geom):
    # peak reflection cannot grow as order is removed
    values = []
    for f_dw in (1.0, 0.8, 0.6, 0.4, 0.2, 0.0):
        chain = bs.two_component_lattice(3e17, f_dw, 600, 10, geom)
        values.append(bs.scatter(bs.chain_matrix(chain, 0.0, cfg, geom)).big_r)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_two_component_dip_vs_lorentzian(cfg, geom):
    grid = bs.detuning_grid(-6, 6, 241)
    high = bs.spectrum(bs.two_component_lattice(3e17, 0.2, 600, 10, geom),
                       grid, cfg, geom)
    low = bs.spectrum(bs.two_component_lattice(3e15, 0.2, 600, 10, geom),
                      grid, cfg, geom)
    i0 = np.argmin(np.abs(grid))
    i_m = np.argmin(np.abs(grid + 3))
    i_p = np.argmin(np.abs(grid - 3))
    assert high.R[i0] < high.R[i_m] and high.R[i0] < high.R[i_p]
    assert low.R[i0] > low.R[i_m] and low.R[i0] > low.R[i_p]


def test_sequential_mirror_contrast_stark_on_vs_off(cfg1, geom):
    # lattice-constant mirror: near-symmetric without Stark, broken with it
    grid = bs.detuning_grid(-15, 15, 601)
    diffs = {}
    for stark in (False, True):
        peaks = []
        for dl in (+0.4e-9, -0.4e-9):
            g = geom.with_lattice_mismatch(dl)
            chain = bs.sequential_lattice(thermal_cfg(g, n_s=200, stark=stark), g)
            peaks.append(float(bs.spectrum(chain, grid, cfg1, g).R.max()))
        diffs[stark] = abs(peaks[0] - peaks[1]) / max(peaks)
    assert diffs[False] < 1e-2
    assert diffs[True] > 30 * diffs[False]


def test_potential_forms(geom):
    zs = np.linspace(-geom.lambda_dip / 4, geom.lambda_dip / 4, 11)
    harm = bs.potential_above_minimum(zs, geom.U0, geom.k_dip, "harmonic")
    sine = bs.potential_above_minimum(zs, geom.U0, geom.k_dip, "sinusoidal")
    assert harm[5] == 0.0 and sine[5] == 0.0
    assert np.all(harm >= sine - 1e-9)  # parabola majorizes sin^2
    depth = bs.local_depth(zs, geom.U0, geom.k_dip, "harmonic")
    assert np.all(depth >= 0.0) and depth[5] == geom.U0


def test_thermal_config_validation(geom):
    with pytest.raises(ValueError):
        bs.ThermalModelConfig(n=-1.0, n_s=1, n_ss=1, T=1e-6, U0=1e7)
    with pytest.raises(ValueError):
        bs.ThermalModelConfig(n=1e17, n_s=0, n_ss=1, T=1e-6, U0=1e7)
    with pytest.raises(ValueError):
        bs.ThermalModelConfig(n=1e17, n_s=1, n_ss=1, T=1e-6, U0=1e7,
                              potential_form="cubic")
    with pytest.raises(ValueError):
        bs.two_component_lattice(3e17, 1.5, 10, 10, geom)
