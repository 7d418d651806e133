import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import braggstack as bs
from braggstack.response import line_response

ND_Z = 1.215e11  # 3e11 cm^-3 over half an 810 nm period


def test_zeta_zero_density(cfg):
    assert bs.zeta(0.0, 0.0, cfg) == 0.0 + 0.0j


def test_zeta_on_resonance_single_line(cfg1):
    z = bs.zeta(ND_Z, 0.0, cfg1)
    assert z.real == pytest.approx(0.0, abs=1e-15)
    assert z.imag == pytest.approx(0.017647, abs=2e-5)


def test_zeta_half_linewidth(cfg1):
    z = bs.zeta(ND_Z, cfg1.gamma / 2, cfg1)
    assert z == pytest.approx(-0.0088236 + 0.0088236j, abs=2e-6)


def test_zeta_linear_in_density(cfg):
    deltas = np.linspace(-35, 10, 31) * cfg.gamma
    assert np.allclose(bs.zeta(2 * ND_Z, deltas, cfg), 2 * bs.zeta(ND_Z, deltas, cfg),
                       rtol=1e-14, atol=0)


def test_zeta_passive_sign(cfg):
    deltas = np.linspace(-60, 40, 501) * cfg.gamma
    z = bs.zeta(ND_Z, deltas, cfg)
    assert np.all(z.imag > 0)


def test_zeta_symmetry_about_line_center(cfg1):
    d = np.linspace(0.1, 20, 50) * cfg1.gamma
    zp = bs.zeta(ND_Z, d, cfg1)
    zm = bs.zeta(ND_Z, -d, cfg1)
    np.testing.assert_allclose(zp.real, -zm.real, rtol=1e-13)
    np.testing.assert_allclose(zp.imag, zm.imag, rtol=1e-13)


def test_cross_section_values(cfg1):
    sigma0 = bs.resonant_cross_section(780e-9)
    assert sigma0 * 1e4 == pytest.approx(2.905e-9, rel=1e-3)  # cm^2
    assert bs.cross_section(0.0, cfg1) == pytest.approx(sigma0, rel=1e-14)
    assert bs.cross_section(cfg1.gamma, cfg1) == pytest.approx(sigma0 / 5, rel=1e-14)
    assert bs.cross_section(1e6 * cfg1.gamma, cfg1) < 1e-12 * sigma0
    assert bs.cross_section(1e300, cfg1) == 0.0  # the limit, where x * x overflows


def test_cross_section_tracks_im_zeta(cfg):
    # same Lorentzian envelope: sigma = 2 Im(zeta) / surface density
    deltas = np.linspace(-40, 15, 1101) * cfg.gamma
    sigma = bs.cross_section(deltas, cfg)
    z = bs.zeta(ND_Z, deltas, cfg)
    np.testing.assert_allclose(sigma, 2.0 * z.imag / ND_Z, rtol=1e-12)


@settings(max_examples=300, deadline=None)
@given(delta=hnp.arrays(float, st.integers(1, 16),
                        elements=st.floats(-1.6e308, 1.6e308)),
       offset=st.floats(-1e307, 1e307), gamma=st.floats(2.0**-1021, 1e300))
@example(delta=np.array([-4.7e300 * bs.GAMMA_RB85_D2, -2.6e161, 0.0, 1e300]),
         offset=0.0, gamma=bs.GAMMA_RB85_D2)
def test_line_factors_keep_their_bits_without_overflow(delta, offset, gamma):
    # x = 2 (delta - delta_F) / Gamma keeps the bits of the old
    # 2.0 * (delta - delta_F) / Gamma wherever that is finite (Gamma / 2 is
    # exact for a normal Gamma), and nothing overflows (an error here) where
    # 2 * (delta - delta_F), x or x * x would
    cfg = bs.AtomResponseConfig(gamma, (bs.SpectralLine(offset, 1.0),), 780e-9)
    with np.errstate(over="ignore"):
        x = 2.0 * (delta - offset) / gamma
        x2 = x * x
    sigma0 = bs.resonant_cross_section(780e-9)
    resp, sigma = line_response(delta, cfg), bs.cross_section(delta, cfg)
    old = np.isfinite(x)
    np.testing.assert_array_equal(resp[old], 1.0 / (1j + x[old]))
    # sigma is -sigma0 * Im of the same line factor, within 4 ulp of the
    # Lorentzian sigma0 / (1 + x^2)
    np.testing.assert_array_equal(sigma, -sigma0 * resp.imag)
    fits = np.isfinite(x2)
    lorentzian = sigma0 / (1.0 + x2[fits])
    assert np.all(np.abs(sigma[fits] - lorentzian) <= 4 * np.finfo(float).eps * sigma[fits])
    assert np.all(np.isfinite(resp)) and np.all((sigma >= 0.0) & (sigma <= sigma0))


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(1e-12, 1e3), density=st.floats(0.0, 1e30),
       delta=st.floats(-1e12, 1e12))
def test_zeta_keeps_the_bits_of_its_written_out_prefactor(lam, density, delta):
    # sigma0 / 2 is the old (3/2) lambda^2 / 2pi to the bit
    cfg = bs.AtomResponseConfig(bs.GAMMA_RB85_D2, bs.rb85_d2_f3_lines(), lam)
    old = -np.asarray(density) * (1.5 * lam**2 / (2 * math.pi)) * line_response(delta, cfg)
    assert np.array(bs.zeta(density, delta, cfg)).tobytes() == old.tobytes()


def test_default_line_set_normalized():
    lines = bs.rb85_d2_f3_lines()
    assert sum(l.strength for l in lines) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose([l.delta_f / bs.GAMMA_RB85_D2 for l in lines],
                               [-31.0, -20.0, 0.0], rtol=1e-14)


def _geometry(**changed):
    return bs.LatticeGeometry(**{**dict(lambda_dip=810e-9, lambda_brg=780e-9, beta_i=0.3,
                                        U0=1e7, T=1e-4, w_dip=2e-4), **changed})


def _thermal(**changed):
    return bs.ThermalModelConfig(**{**dict(n=1e17, n_s=1, n_ss=1, T=1e-6, U0=1e7),
                                    **changed})


def _response(gamma=bs.GAMMA_RB85_D2, delta_f=0.0, strength=1.0, lambda_brg=780e-9):
    return bs.AtomResponseConfig(gamma, (bs.SpectralLine(delta_f, strength),), lambda_brg)


@pytest.mark.parametrize("build, key, value, message", [
    (_geometry, "U0", math.nan, "U0 must be positive"),
    (_geometry, "T", math.nan, "T must be non-negative"),
    (_geometry, "w_dip", math.nan, "w_dip must be positive"),
    (_thermal, "n", math.nan, "density must be non-negative"),
    (_thermal, "T", math.nan, "T must be non-negative"),
    (_thermal, "U0", math.nan, "U0 must be positive"),
    (_thermal, "U0", 0.0, "U0 must be positive"),
    (_thermal, "U0", -1e7, "U0 must be positive"),
    (_response, "gamma", math.nan, "gamma must be positive"),
    (_response, "strength", math.nan, "line strength must be non-negative"),
    (_response, "delta_f", math.nan, "delta_f must be finite"),
    (_response, "delta_f", -math.inf, "delta_f must be finite"),
    (_response, "lambda_brg", math.nan, "lambda_brg must be positive"),
    (_response, "lambda_brg", -1.0, "lambda_brg must be positive"),
])
def test_constructors_refuse_nan_and_out_of_range_values(build, key, value, message):
    # NaN passes a check written as x <= 0 or x < 0
    with pytest.raises(ValueError, match=message):
        build(**{key: value})


def test_config_validation():
    with pytest.raises(ValueError):
        bs.AtomResponseConfig(0.0, bs.rb85_d2_f3_lines(), 780e-9)
    with pytest.raises(ValueError):
        bs.AtomResponseConfig(bs.GAMMA_RB85_D2, (), 780e-9)
    with pytest.raises(ValueError):
        bs.AtomResponseConfig(bs.GAMMA_RB85_D2,
                              (bs.SpectralLine(0.0, 0.5),), 780e-9)
