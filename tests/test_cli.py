import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from braggstack import cli, verify
from braggstack.cli import main
from braggstack.config import default_config_text, parse_config
from braggstack.svgplot import render_svg
from braggstack.tableio import read_csv, read_spectrum_csv, render_csv

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


@pytest.mark.parametrize("kind", ["perfect", "sequential"])
def test_scan_atoms_refuses_other_model_kinds(tmp_path, capsys, kind):
    # the saturation scan builds the two-component model whatever the
    # config names: another kind is an error, not a silently ignored setting
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG.replace("kind = two_component", f"kind = {kind}"),
                    encoding="utf-8")
    out = tmp_path / "sat"
    assert main(["scan-atoms", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: scan-atoms needs [model] kind = "
                   f"two_component, got kind = {kind}\n")
    assert not list(out.glob("*"))


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


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_files_equal_in_memory_renders(tmp_path, command):
    # the streamed writers against the string renders, on the default config
    assert main([command, "--svg", "--out", str(tmp_path)]) == 0
    run = parse_config(default_config_text())
    csv_files, (svg_suffix, series, xlabel, ylabel) = cli.COMMANDS[command][0](run)
    expected = {f"{run.scan.out}{suffix}.csv":
                render_csv(columns, {**metadata, **run.echo}).encode("utf-8")
                for suffix, columns, metadata in csv_files}
    expected[f"{run.scan.out}{svg_suffix}.svg"] = \
        render_svg(series, xlabel, ylabel).encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name


VERIFY_ROWS = [
    ("single-slab-closed-form", 1e-12),
    ("long-chain-10k", 1e-10),
    ("lossless-sum", 1e-12),
    ("reciprocity", 1e-10),
    ("passivity", 1e-9),
    ("thin-grating-quadratic", 1e-2),
    ("periodic-fast-path", 1e-10),
    ("oracle-agreement", 1e-10),
]


def test_verify_rows_keep_their_names_order_and_tolerances():
    # a loosened tolerance, or a dropped or reordered check, fails here
    assert [(name, tol) for name, tol, _ in verify.CHECKS] == VERIFY_ROWS


def test_verify_command_passes(capsys):
    assert main(["verify", "--chains", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == \
        [f"[PASS] {name}" for name, _ in VERIFY_ROWS]
    assert lines[-1] == "all 8 checks passed"
    assert "over 30 chains (tol 1e-10)" in lines[-2]


def test_verify_row_over_its_tolerance_fails_and_the_rest_still_run(
        monkeypatch, capsys):
    name, tol, _ = verify.CHECKS[0]
    forced = [(name, tol, lambda *args: (2 * tol, "forced"))]
    monkeypatch.setattr(verify, "CHECKS", (*forced, *verify.CHECKS[1:]))
    assert main(["verify", "--chains", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"[FAIL] {name}: forced (tol 1e-12)"
    assert [line.split(":")[0] for line in lines[1:-1]] == \
        [f"[PASS] {name}" for name, _ in VERIFY_ROWS[1:]]
    assert lines[-1] == "1 of 8 checks failed"


@pytest.mark.parametrize("r, a, passed", [
    (1.0 + 1e-12, -1e-9, True),  # on both bounds
    (1.0 + 2e-12, 0.0, False),
    (1.0, -2e-9, False),
    (np.nan, 0.0, False),
    (1.0, np.nan, False),
])
def test_passivity_keeps_its_three_bounds(monkeypatch, geom, cfg, r, a, passed):
    # R and T at most 1 + 1e-12 in the check, A at least -tol in the table;
    # the first chain is benign, so a value seen later must count
    calls = []

    def scatter(m):
        n, first = np.shape(m)[-1], not calls
        calls.append(m)
        return SimpleNamespace(big_r=np.full(n, 0.5 if first else r),
                               big_t=np.full(n, 0.5),
                               big_a=np.full(n, 0.0 if first else a))

    monkeypatch.setattr(verify, "scatter", scatter)
    (_, tol, check), = [row for row in verify.CHECKS if row[0] == "passivity"]
    deviation, detail = check(geom, cfg, 0)
    assert (deviation <= tol) is passed
    assert "max R" in detail and "max T" in detail and "min A" in detail


def test_verify_rejects_a_config(capsys):
    # verify builds fixed seeded chains and reads no configuration
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--chains", "3", "--config", "/nonexistent/run.cfg"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("chains", ["-3", "0", "many"])
def test_verify_rejects_non_positive_chains(chains, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--chains", chains])
    assert exit_.value.code == 2
    assert "--chains" in capsys.readouterr().err


def test_long_chain_check_compares_tree_scan_oracle_and_mirror(monkeypatch, geom,
                                                              cfg):
    deviation, detail = verify.check_long_chain(geom, cfg, 0)
    assert deviation <= 1e-10
    assert "tree - scan" in detail and "oracle" in detail \
        and "T_mirror" in detail and "on 10000 slabs" in detail
    # a grid path that scatters the wrong chain (here the mirrored one, same
    # T, other r) fails the check
    chain_matrix = verify.chain_matrix

    def broken(chain, delta, *args):
        return chain_matrix(chain.mirrored() if np.ndim(delta) else chain, delta,
                            *args)

    monkeypatch.setattr(verify, "chain_matrix", broken)
    assert verify.check_long_chain(geom, cfg, 0)[0] > 1e-10


def test_config_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nn = 3e11 furlongs\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_engine_error_reported(tmp_path, capsys):
    # a valid config whose |t| leaves the float range: one line, no traceback
    cfg = tmp_path / "long.cfg"
    cfg.write_text("[model]\nn_s = 100000\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"engine error: \|t\| below the float range: "
                        r"M22 = 1/t overflows at grid index \d+\n", err)
    assert not list(tmp_path.glob("*.csv"))


def test_refused_scan_leaves_no_out_directory(tmp_path):
    # exit 2 after the config parsed: --out is made only before the first write
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG.replace("kind = two_component", "kind = perfect"),
                    encoding="utf-8")
    out = tmp_path / "x" / "sub"
    assert main(["scan-atoms", "--config", str(path), "--out", str(out)]) == 2
    assert not (tmp_path / "x").exists()


def test_engine_error_leaves_no_out_directory(tmp_path):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("[model]\nn_s = 100000\n", encoding="utf-8")
    out = tmp_path / "x" / "sub"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 4
    assert not (tmp_path / "x").exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"[model]\nkind = perfect\xff\n")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line 2: {bad} is not UTF-8 text")
    assert not list(tmp_path.glob("*.csv"))


def test_cli_import_loads_no_scipy():
    # only the boundary-value oracle needs scipy, and imports it when called
    code = ("import sys, braggstack.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
