import math
import re

import pytest
from scipy.constants import hbar, k as k_B

import braggstack as bs
from braggstack import config
from braggstack.cli import main
from braggstack.config import ConfigError, default_config_text, parse_config


def test_empty_config_uses_all_defaults():
    run = parse_config("")
    assert run.geometry.lambda_dip == pytest.approx(810e-9)
    assert run.geometry.lambda_brg == pytest.approx(780e-9)
    assert math.degrees(run.geometry.beta_i) == pytest.approx(15.642, abs=1e-3)
    assert run.model.kind == "two_component"
    assert run.scan.grid == (-40.0, 15.0, 1101)
    assert run.scan.detuning_grid().tobytes() == bs.detuning_grid().tobytes()
    # every schema key is echoed, defaults included
    assert run.echo["geometry.w_dip"] == "220 um"
    assert run.echo["scan.eta"] == "0.16"
    assert len(run.echo) == 23


def test_default_config_text_round_trips():
    run = parse_config(default_config_text())
    assert run.model.n == pytest.approx(3e17)
    assert run.scan.out == "spectrum"


def test_temperature_sugar():
    run = parse_config("[geometry]\nU0 = 500 uK\nT = 0.4*U0\n")
    u0 = k_B * 500e-6 / hbar
    assert run.geometry.U0 == pytest.approx(u0)
    assert run.geometry.T == pytest.approx(0.4 * hbar * u0 / k_B)


def test_depth_in_gamma_and_mhz():
    run = parse_config("[response]\ngamma = 6 MHz\n[geometry]\nU0 = 0.6 Gamma\nT = 90 uK\n")
    assert run.geometry.U0 == pytest.approx(0.6 * 2 * math.pi * 6e6)
    run = parse_config("[geometry]\nU0 = 10 MHz\nT = 1 uK\n")
    assert run.geometry.U0 == pytest.approx(2 * math.pi * 1e7)


def test_angle_explicit_and_bragg():
    run = parse_config("[geometry]\nangle = 20 deg\n")
    assert run.geometry.beta_i == pytest.approx(math.radians(20))
    run = parse_config("[geometry]\nangle = bragg\nlambda_dip = 812 nm\n")
    assert run.geometry.beta_i == pytest.approx(bs.bragg_angle(780e-9, 812e-9))


def test_density_units():
    assert parse_config("[model]\nn = 3e11 cm^-3\n").model.n == pytest.approx(3e17)
    assert parse_config("[model]\nn = 3e17 m^-3\n").model.n == pytest.approx(3e17)


def test_custom_line_set_normalized():
    run = parse_config("[response]\nlines = 0 2; -10 1\n")
    assert [l.strength for l in run.response.lines] == [pytest.approx(2 / 3),
                                                        pytest.approx(1 / 3)]
    assert run.response.lines[1].delta_f == pytest.approx(-10 * run.response.gamma)


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("[geometry]\nlambda_dip = 810 nm\nbogus = 3\n")
    assert err.value.line == 3
    assert "bogus" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[nonsense]\n")
    assert err.value.line == 1


def test_unit_mismatch_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[geometry]\nlambda_dip = 810 uK\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError):
        parse_config("[model]\nn = 3e11 mm\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nn_s = 10\nn_s = 20\n")
    assert err.value.line == 3


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[model]\nn_s 10\n")
    assert err.value.line == 2


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("n_s = 10\n")
    assert err.value.line == 1


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        parse_config("[model]\nf_dw = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[scan]\ngrid = 5 -5 100\n")
    with pytest.raises(ConfigError):
        parse_config("[model]\nkind = bogus\n")
    with pytest.raises(ConfigError):
        parse_config("[geometry]\nlambda_brg = 900 nm\n")  # beyond lambda_dip


def test_model_chain_builders():
    for kind, expected_slabs in (("perfect", 1), ("sequential", 20),
                                 ("two_component", 21)):
        run = parse_config(f"[model]\nkind = {kind}\nn_s = 7\n")
        chain = run.build_chain()
        assert chain.periods == 7
        assert chain.n_slabs == expected_slabs


def test_comments_and_blank_lines_ignored():
    text = "# top comment\n\n[model]\n# mid comment\nn_s = 5  # trailing\n"
    assert parse_config(text).model.n_s == 5


DEFAULT_TEXT = (
    "[geometry]\nlambda_dip = 810 nm\nlambda_brg = 780 nm\nangle = bragg\n"
    "U0 = 500 uK\nT = 0.4*U0\nw_dip = 220 um\n\n"
    "[response]\ngamma = 6 MHz\nlines = default\n\n"
    "[model]\nkind = two_component\nn = 3e11 cm^-3\nn_s = 600\nn_ss = 20\n"
    "f_dw = 0.2\nstark = off\npotential = harmonic\n\n"
    "[scan]\ngrid = -40 15 1101\ndelta_lambda = 0 nm\natom_numbers = 1e5 4e7 13\n"
    "samples_per_gap = 64\nprofile_delta = 0\neta = 0.16\np_i = 30 uW\n"
    "out = spectrum\n")

DEFAULT_ECHO = {
    "geometry.lambda_dip": "810 nm",
    "geometry.lambda_brg": "780 nm",
    "geometry.angle": "bragg (15.642471 deg)",
    "geometry.U0": "500 uK",
    "geometry.T": "0.4*U0 (200 uK)",
    "geometry.w_dip": "220 um",
    "response.gamma": "6 MHz",
    "response.lines": "-31 0.0793651; -20 0.277778; 0 0.642857",
    "model.kind": "two_component",
    "model.n": "3e11 cm^-3",
    "model.n_s": "600",
    "model.n_ss": "20",
    "model.f_dw": "0.2",
    "model.stark": "off",
    "model.potential": "harmonic",
    "scan.grid": "-40 15 1101",
    "scan.delta_lambda": "0 nm",
    "scan.atom_numbers": "1e5 4e7 13",
    "scan.samples_per_gap": "64",
    "scan.profile_delta": "0",
    "scan.eta": "0.16",
    "scan.p_i": "30 uW",
    "scan.out": "spectrum",
}


def test_default_config_text_is_pinned():
    assert default_config_text() == DEFAULT_TEXT


def test_default_echo_is_pinned():
    assert parse_config("").echo == DEFAULT_ECHO


def test_module_docstring_lists_every_key_with_its_default():
    doc = config.__doc__
    for line in DEFAULT_TEXT.splitlines():
        if line.startswith("["):
            assert f"    {line}\n" in doc
        elif line:
            key, default = line.split(" = ")
            assert re.search(rf"\n    {key} += {re.escape(default)} ", doc), line


def test_echo_transforms_are_pinned():
    # explicit angle, absolute T, U0 in Gamma, custom lines, 'yes' switch and
    # text values with stray spaces
    text = ("[geometry]\nangle = 20 deg\nU0 = 0.6 Gamma\nT = 90 uK\n"
            "[response]\ngamma = 6.07 MHz\nlines = 0 3; -11.7 1; -29 0.5\n"
            "[model]\nkind =  sequential  \nstark = yes\npotential =   sinusoidal\n"
            "[scan]\nout =   run 7  \n")
    assert parse_config(text).echo == dict(
        DEFAULT_ECHO, **{
            "geometry.angle": "20 deg",
            "geometry.U0": "0.6 Gamma",
            "geometry.T": "90 uK (90 uK)",
            "response.gamma": "6.07 MHz",
            "response.lines": "0 0.666667; -11.7 0.222222; -29 0.111111",
            "model.kind": "sequential",
            "model.stark": "on",
            "model.potential": "sinusoidal",
            "scan.out": "run 7"})
    # Bragg angle of a mismatched lattice, T as a fraction of a depth in Gamma
    text = "[geometry]\nlambda_dip = 812 nm\nangle = bragg\nU0 = 0.6 Gamma\nT = 0.4*U0\n"
    assert parse_config(text).echo == dict(
        DEFAULT_ECHO, **{
            "geometry.lambda_dip": "812 nm",
            "geometry.angle": "bragg (16.138801 deg)",
            "geometry.U0": "0.6 Gamma",
            "geometry.T": "0.4*U0 (69.1091 uK)"})


INVALID_VALUES = [
    ("[response]\ngamma = 0 MHz\n", 2),
    ("[response]\ngamma = -6 MHz\n", 2),
    ("[model]\nn = -3e11 cm^-3\n", 2),
    ("[model]\nn = 1e308 cm^-3\n", 2),
    ("[response]\nlines = 0 inf\n", 2),
    ("[response]\nlines = 1e308 1\n", 2),
    ("[response]\nlines = 0 1e308; 1 1e308\n", 2),
    ("[scan]\ngrid = -40 nan 101\n", 2),
    ("[scan]\ngrid = -inf 15 101\n", 2),
    ("[scan]\nprofile_delta = nan\n", 2),
    ("[scan]\nprofile_delta = inf\n", 2),
    ("[scan]\ndelta_lambda = 0 inf nm\n", 2),
    ("[scan]\natom_numbers = 1e5 inf 13\n", 2),
    ("[geometry]\nlambda_dip = 1e400 nm\n", 2),
    ("[geometry]\nw_dip = -3 um\n", 2),
    ("[geometry]\nU0 = -5 uK\n", 2),
    ("[geometry]\nT = -1 uK\n", 2),
    ("[geometry]\nangle = 95 deg\n", 2),
    ("[geometry]\nangle = 20 deg\nlambda_brg = 900 nm\n", 3),
    ("# lambda_brg keeps its default\n[geometry]\nlambda_dip = 700 nm\n", 3),
    ("[model]\nn_s = 0\n", 2),
    ("[model]\n\nn_ss = 0\n", 3),
    ("[scan]\np_i = -1 uW\n", 2),
    # plain numbers take the syntax of quantities: no '_' digit separators
    ("[scan]\neta = 0_1\n", 2),
    ("[scan]\nprofile_delta = 1_0\n", 2),
    ("[model]\nn_s = 1_000\n", 2),
    ("[scan]\ngrid = -40 15 1_101\n", 2),
    ("[geometry]\nlambda_dip = 8_10 nm\n", 2),
    # digits are ASCII only: Arabic-Indic digits are Unicode decimals too
    ("[model]\nn_s = \u0666\u0660\n", 2),
    ("[scan]\neta = 0.\u0661\n", 2),
    ("[geometry]\nlambda_dip = \u0668\u0661\u0660 nm\n", 2),
    ("[scan]\ngrid = -40 15 \u0661\u0660\u0661\n", 2),
]


@pytest.mark.parametrize("text, line", INVALID_VALUES,
                         ids=[text.splitlines()[-1] for text, _ in INVALID_VALUES])
def test_invalid_value_names_its_line(text, line, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == line
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_refused_default_names_its_key_once():
    # one atom has no density in a cloud this wide at the default waist
    text = "[geometry]\nU0 = 1e-250 rad/s\nT = 1e300 K\n"
    message = ("[geometry] w_dip = 220 um (its default): w_dip is outside the "
               "float range: one atom in the cloud has density 0.0 m^-3")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message and err.value.line is None
    # atom_numbers' default reads the geometry: the default w_dip that it
    # looks up is named by its own key, and only once
    values = config._Values(config._read_entries(text))
    with pytest.raises(ConfigError) as err:
        values["scan", "atom_numbers"]
    assert str(err.value) == message


def test_probe_waist_is_no_longer_a_key(tmp_path, capsys):
    # nothing computed from w_brg, so the key went; an old config says so
    path = tmp_path / "old.cfg"
    path.write_text("[geometry]\nw_dip = 220 um\nw_brg = 800 um\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "line 3: unknown key 'w_brg' in [geometry]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]
