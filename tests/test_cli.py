import numpy as np
import pytest

from braggstack.cli import main
from braggstack.tableio import read_csv, read_spectrum_csv

FAST_CONFIG = """
[model]
kind = two_component
n = 3e11 cm^-3
n_s = 120
n_ss = 6
f_dw = 0.2

[scan]
grid = -6 6 121
delta_lambda = -0.4 0 0.4 nm
atom_numbers = 1e5 1e7 5
samples_per_gap = 8
out = run
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return path


def test_spectrum_command(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(config_path),
                 "--out", str(out), "--svg"]) == 0
    table = read_spectrum_csv(out / "run.csv")
    assert table.delta_over_gamma.size == 121
    assert table.metadata["model.kind"] == "two_component"
    assert (out / "run.svg").exists()


def test_spectrum_deterministic_across_runs(tmp_path, config_path):
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(config_path),
                     "--out", str(out), "--svg"]) == 0
        outs.append(out)
    ref_csv = (outs[0] / "run.csv").read_bytes()
    ref_svg = (outs[0] / "run.svg").read_bytes()
    for out in outs[1:]:
        assert (out / "run.csv").read_bytes() == ref_csv
        assert (out / "run.svg").read_bytes() == ref_svg


def test_scan_lattice_command(tmp_path, config_path):
    out = tmp_path / "fam"
    assert main(["scan-lattice", "--config", str(config_path),
                 "--out", str(out), "--svg"]) == 0
    files = sorted(p.name for p in out.glob("*.csv"))
    assert files == ["run_dl+0.000nm.csv", "run_dl+0.400nm.csv",
                     "run_dl-0.400nm.csv"]
    assert (out / "run_family.svg").exists()
    table = read_spectrum_csv(out / "run_dl+0.400nm.csv")
    assert table.metadata["delta_lambda_nm"] == "0.4"


def test_scan_atoms_command(tmp_path, config_path):
    out = tmp_path / "sat"
    assert main(["scan-atoms", "--config", str(config_path), "--out", str(out)]) == 0
    cols, meta = read_csv(out / "run_saturation.csv")
    assert list(cols) == ["atom_number", "density_m3", "max_R"]
    assert cols["atom_number"].size == 5
    assert np.all(np.diff(cols["max_R"]) > 0)


def test_profile_command(tmp_path, config_path):
    out = tmp_path / "prof"
    assert main(["profile", "--config", str(config_path),
                 "--out", str(out), "--svg"]) == 0
    cols, _ = read_csv(out / "run_profile.csv")
    assert list(cols) == ["z_m", "z_over_lambda_dip", "intensity"]
    assert np.all(cols["intensity"] >= 0)


def test_bands_command(tmp_path, config_path):
    out = tmp_path / "bands"
    assert main(["bands", "--config", str(config_path), "--out", str(out)]) == 0
    cols, _ = read_csv(out / "run_bands.csv")
    assert list(cols) == ["delta_over_gamma", "re_theta", "im_theta", "dos"]
    assert np.all(cols["im_theta"] >= 0)


def test_powers_command(tmp_path, config_path):
    out = tmp_path / "pow"
    assert main(["powers", "--config", str(config_path), "--out", str(out)]) == 0
    cols, meta = read_csv(out / "run_powers.csv")
    total = cols["P_r_W"] + cols["P_t_W"] + cols["P_a_W"]
    np.testing.assert_allclose(total, 30e-6, rtol=1e-12)
    assert meta["scan.eta"] == "0.16"


def test_verify_command_passes(capsys):
    assert main(["verify", "--chains", "30"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8
    assert "[FAIL]" not in out


def test_config_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nn = 3e11 furlongs\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
