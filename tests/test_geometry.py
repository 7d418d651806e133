import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import braggstack as bs


def test_bragg_angle_reference_wavelengths():
    # 780 nm probe on an 810 nm lattice comes in near 15.6 degrees
    assert math.degrees(bs.bragg_angle(780e-9, 810e-9)) == pytest.approx(15.64, abs=0.01)


def test_bragg_angle_equal_wavelengths_is_zero():
    assert bs.bragg_angle(780e-9, 780e-9) == 0.0


def test_bragg_angle_independent_value():
    # arccos(780/812), checked against a high-precision evaluation
    assert math.degrees(bs.bragg_angle(780e-9, 812e-9)) == pytest.approx(16.1388, abs=1e-3)


def test_bragg_angle_domain_error():
    with pytest.raises(ValueError):
        bs.bragg_angle(810e-9, 780e-9)


def test_lattice_mismatch_roundtrip():
    beta = bs.bragg_angle(780e-9, 810e-9)
    assert abs(bs.lattice_mismatch(810e-9, 780e-9, beta)) < 1e-21


def test_lattice_mismatch_signed_values():
    beta = bs.bragg_angle(780e-9, 810e-9)
    assert bs.lattice_mismatch(810.8e-9, 780e-9, beta) == pytest.approx(0.8e-9, rel=1e-9)
    assert bs.lattice_mismatch(810e-9, 780e-9, math.radians(16.0)) == pytest.approx(
        810e-9 - 780e-9 / math.cos(math.radians(16.0)), rel=1e-12)


def test_axial_width_reference_point():
    # k_B T = 0.4 hbar U0 gives 2 sigma_z ~ 115 nm on an 810 nm lattice
    U0 = k_B * 500e-6 / hbar
    T = bs.temperature_for_depth_fraction(0.4, U0)
    assert 2 * bs.axial_width(T, U0, 810e-9) == pytest.approx(115e-9, rel=0.02)
    assert bs.axial_width(0.0, U0, 810e-9) == 0.0
    # sqrt(T) scaling: doubling the depth fraction scales 2 sigma_z by sqrt(2)
    T2 = bs.temperature_for_depth_fraction(0.8, U0)
    assert bs.axial_width(T2, U0, 810e-9) == pytest.approx(
        math.sqrt(2) * bs.axial_width(T, U0, 810e-9), rel=1e-12)


def test_radial_width_reference_point():
    U0 = k_B * 500e-6 / hbar
    T = bs.temperature_for_depth_fraction(0.4, U0)
    assert 2 * bs.radial_width(T, U0, 220e-6) == pytest.approx(139.1e-6, rel=1e-3)
    assert bs.radial_width(0.0, U0, 220e-6) == 0.0
    T01 = bs.temperature_for_depth_fraction(0.1, U0)
    assert 2 * bs.radial_width(T01, U0, 220e-6) == pytest.approx(69.6e-6, rel=1e-2)


def test_debye_waller_limits_and_value():
    k_dip = 2 * math.pi / 810e-9
    assert bs.debye_waller(0.0, k_dip) == 1.0
    assert bs.debye_waller(57.5e-9, k_dip) == pytest.approx(0.672, abs=1e-3)
    assert bs.debye_waller(1.0, k_dip) < 1e-300 or bs.debye_waller(1.0, k_dip) == 0.0


def test_debye_waller_monotone():
    k_dip = 2 * math.pi / 810e-9
    sigmas = np.linspace(0, 200e-9, 40)
    vals = [bs.debye_waller(s, k_dip) for s in sigmas]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_effective_layers():
    beta = math.radians(15.64)
    assert bs.effective_layers(70e-6, 810e-9, beta) == pytest.approx(617.4, rel=1e-3)
    assert bs.effective_layers(70e-6, 810e-9, math.radians(45)) == pytest.approx(172.8, rel=1e-3)
    assert bs.effective_layers(0.0, 810e-9, beta) == 0.0
    assert math.isinf(bs.effective_layers(70e-6, 810e-9, 0.0))


def test_penetration_layers_reference_point():
    sigma0 = bs.resonant_cross_section(780e-9)
    assert bs.penetration_layers(3e17, 0.2, sigma0, 780e-9) == pytest.approx(36.8, abs=0.1)
    assert math.isinf(bs.penetration_layers(3e17, 1.0, sigma0, 780e-9))
    assert math.isinf(bs.penetration_layers(0.0, 0.2, sigma0, 780e-9))
    # detuned by one linewidth the cross section drops 5x, depth grows 5x
    assert bs.penetration_layers(3e17, 0.2, sigma0 / 5, 780e-9) == pytest.approx(183.9, abs=0.5)


def test_penetration_layers_monotone_in_f_dw():
    sigma0 = bs.resonant_cross_section(780e-9)
    vals = [bs.penetration_layers(3e17, f, sigma0, 780e-9) for f in (0.0, 0.3, 0.6, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


_SIGMA0 = bs.resonant_cross_section(780e-9)


@pytest.mark.parametrize("fn, args, message", [
    (bs.axial_width, (math.nan, 1e7, 810e-9), "T must be non-negative"),
    (bs.axial_width, (1e-4, math.nan, 810e-9), "U0 must be positive"),
    (bs.radial_width, (math.nan, 1e7, 1e-4), "T must be non-negative"),
    (bs.radial_width, (1e-4, math.nan, 1e-4), "U0 must be positive"),
    (bs.debye_waller, (math.nan, 7.8e6), "sigma_z must be non-negative"),
    (bs.effective_layers, (math.nan, 810e-9, 0.27), "sigma_r must be non-negative"),
    (bs.effective_layers, (math.nan, 810e-9, 0.0), "sigma_r must be non-negative"),
    (bs.effective_layers, (-1e-6, 810e-9, 0.27), "sigma_r must be non-negative"),
    (bs.penetration_depth, (math.nan, 0.2, _SIGMA0), r"need n >= 0 and sigma_abs > 0"),
    (bs.penetration_depth, (3e17, 0.2, math.nan), r"need n >= 0 and sigma_abs > 0"),
    (bs.penetration_depth, (3e17, math.nan, _SIGMA0), r"f_dw must lie in \[0, 1\]"),
])
def test_free_functions_refuse_nan_by_name(fn, args, message):
    # a NaN passes `x < 0` and `x <= 0`; each check is written so that it fails
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(*args)


def test_geometry_invariants_enforced():
    with pytest.raises(ValueError):
        bs.LatticeGeometry(780e-9, 810e-9, 0.2, 1e7, 1e-4, 1e-4)
    with pytest.raises(ValueError):
        bs.LatticeGeometry(810e-9, 780e-9, 0.2, -1e7, 1e-4, 1e-4)
    with pytest.raises(ValueError):
        bs.LatticeGeometry(810e-9, 780e-9, 0.2, 1e7, -1e-4, 1e-4)
    with pytest.raises(ValueError, match="^w_dip must be positive$"):
        bs.LatticeGeometry(810e-9, 780e-9, 0.2, 1e7, 1e-4, 0.0)


def test_derived_geometry_bundle(geom):
    d = geom.derived()
    assert 0.0 <= d.f_dw <= 1.0
    assert d.n_s == pytest.approx(613.5, rel=1e-3)
    assert geom.k_dip == pytest.approx(2 * math.pi / geom.lambda_dip)
    assert abs(geom.delta_lambda_dip) < 1e-20


def test_bragg_matched_geometry_takes_depth_and_temperature_by_name():
    # the wavelengths and waist are the reference setup's; an old positional
    # call must fail rather than read 810e-9 as the trap depth
    with pytest.raises(TypeError):
        bs.bragg_matched_geometry(810e-9, 780e-9)
    geom = bs.bragg_matched_geometry(U0=1e8, T=50e-6)
    assert (geom.U0, geom.T) == (1e8, 50e-6)
    assert (geom.lambda_dip, geom.lambda_brg, geom.w_dip) == (810e-9, 780e-9, 220e-6)


def test_with_lattice_mismatch(geom):
    for dl in (-0.8e-9, 0.08e-9, 0.8e-9):
        assert geom.with_lattice_mismatch(dl).delta_lambda_dip == pytest.approx(dl, rel=1e-9)
