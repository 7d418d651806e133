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
    ("bragg-phase-closed-form", 1e-15),
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
    assert lines[-1] == "all 7 checks passed"
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
    assert lines[-1] == "1 of 7 checks failed"


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


def test_bragg_phase_row_fails_on_nan(monkeypatch, geom, cfg):
    # a NaN amplitude must not drop out of the row's maximum
    scatter = verify.scatter
    monkeypatch.setattr(verify, "scatter", lambda m: SimpleNamespace(
        r=scatter(m).r * np.nan, t=scatter(m).t))
    (_, tol, check), = [row for row in verify.CHECKS
                        if row[0] == "bragg-phase-closed-form"]
    assert not check(geom, cfg, 0)[0] <= tol


def test_verify_rejects_a_config(capsys):
    # verify builds fixed seeded chains and reads no configuration
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "--chains", "3", "--config", "/nonexistent/run.cfg"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("chains", ["-3", "0", "many", "\u0665\u0660\u0660"])
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


@pytest.mark.parametrize("command, entry", [
    ("scan-lattice", "delta_lambda = -31 nm"),  # lambda_dip below lambda_brg
    ("profile", "profile_delta = 1e301"),  # inf in rad/s
    ("spectrum", "grid = -1e301 0 5"),
    ("spectrum", "grid = -1e308 1e308 11"),  # the grid's step is inf
    ("scan-atoms", "atom_numbers = 1e300 1e308 3"),  # the density is inf
])
def test_value_that_parses_but_cannot_run_is_refused_at_its_line(
        tmp_path, capsys, command, entry):
    # each parses as a number, but the command cannot run with it
    path = tmp_path / "run.cfg"
    path.write_text(f"[scan]\n{entry}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: line 2: ")
    assert not out.exists()


def test_spectrum_far_off_resonance_does_not_overflow(tmp_path):
    # 2 * delta overflowed at -4.7e300 Gamma (a RuntimeWarning, an error
    # here) and the line sum read 0 there
    path = tmp_path / "run.cfg"
    path.write_text("[scan]\ngrid = -4.7e300 0 5\n", encoding="utf-8")
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0
    table = read_spectrum_csv(tmp_path / "spectrum.csv")
    assert np.all(np.isfinite(table.R)) and table.delta_over_gamma.size == 5


@pytest.mark.parametrize("command, text, message", [
    # the whole sweep ran, then the write failed (exit 3) and left --out
    pytest.param("spectrum", "[scan]\nout = sub/name",
                 "line 2: out must be a base name", id="out-in-a-subdirectory"),
    # bands wrote x_bands.csv beside --out, not in it
    pytest.param("bands", "[scan]\nout = ../x",
                 "line 2: out must be a base name", id="out-beside-out"),
    # the DOS's central difference raised a ValueError (exit 1)
    pytest.param("bands", "[scan]\ngrid = -1 1 2",
                 "bands needs a [scan] grid of 3 or more", id="bands-on-2-points"),
    # hbar * U0 underflowed to 0 and the thermal widths divided by it
    pytest.param("profile", "[geometry]\nU0 = 2e-290 rad/s",
                 "line 2: U0 is below the float range", id="U0-underflow"),
    # the cloud area 2 pi sigma_r^2 underflowed to 0: a RuntimeWarning from
    # the density, then the default atom_numbers was refused with no line
    pytest.param("spectrum", "[geometry]\nw_dip = 1e-300 m",
                 "line 2: w_dip is outside the float range", id="w_dip-underflow"),
    # sigma_r**2 raised OverflowError (exit 1, a traceback)
    pytest.param("scan-atoms", "[geometry]\nw_dip = 1e160 m",
                 "line 2: w_dip is outside the float range", id="w_dip-overflow"),
    # a valid waist at which the default atom_numbers' density overflows:
    # the refusal had no key and no line
    pytest.param("scan-atoms", "[geometry]\nw_dip = 1e-150 m",
                 "[scan] atom_numbers = 1e5 4e7 13 (its default): value outside "
                 "the finite float range", id="w_dip-default-atom_numbers"),
    # the Bragg angle rounded to pi/2 and LatticeGeometry raised a ValueError
    # (exit 1, a traceback), at either wavelength
    pytest.param("spectrum", "[geometry]\nlambda_dip = 1e300 m",
                 "line 2: the Bragg angle acos(lambda_brg / lambda_dip) rounds to "
                 "90 deg", id="bragg-angle-90-lambda_dip-1e300"),
    pytest.param("spectrum", "[geometry]\nlambda_dip = 1e12 m",
                 "line 2: the Bragg angle", id="bragg-angle-90-lambda_dip-1e12"),
    pytest.param("bands", "[geometry]\nlambda_brg = 1e-300 m",
                 "line 2: the Bragg angle", id="bragg-angle-90-lambda_brg"),
    # a layer density n * lambda_dip / 2 of inf: the chain builder raised a
    # ValueError (exit 1, a traceback), at the run's lambda_dip or a shifted one
    pytest.param("spectrum", "[geometry]\nlambda_dip = 1e300 m\nangle = 10 deg",
                 "line 2: the layer density n * lambda_dip / 2 overflows",
                 id="layer-density-lambda_dip"),
    pytest.param("scan-lattice", "[model]\nkind = perfect\nn = 1e30 cm^-3\n"
                 "[scan]\ndelta_lambda = 1e300 nm",
                 "line 5: the layer density n * lambda_dip / 2 overflows",
                 id="layer-density-perfect-delta_lambda"),
    pytest.param("scan-lattice", "[model]\nn = 1e30 cm^-3\n[scan]\n"
                 "delta_lambda = 1e290 nm",
                 "line 4: the layer density n * lambda_dip / 2 overflows",
                 id="layer-density-two_component-delta_lambda"),
    # a file name over 255 bytes: the write failed (exit 3, an i/o error)
    pytest.param("spectrum", "[scan]\nout = " + "a" * 300,
                 "line 2: out is 300 bytes", id="out-300-bytes"),
    pytest.param("scan-lattice", "[model]\nn = 0 cm^-3\n[scan]\n"
                 "delta_lambda = 1e300 nm",
                 "line 4: delta_lambda 1.0000000000000001e+291 m: the file name",
                 id="delta_lambda-file-name"),
])
def test_config_that_would_fail_late_is_refused(tmp_path, capsys, command, text,
                                                message):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--svg"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def _config_text(entries):
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


@pytest.mark.parametrize("entries", [
    {("model", "n"): "0 cm^-3"},
    {("model", "kind"): "perfect"},
    {("model", "kind"): "sequential", ("model", "stark"): "on",
     ("geometry", "T"): "0 K"},
    {("model", "kind"): "sequential", ("model", "n"): "1e302 cm^-3"},
    {("model", "kind"): "sequential", ("geometry", "T"): "1e-9 K"},
    {("geometry", "lambda_brg"): "810 nm"},  # the Bragg angle is 0
    {("model", "f_dw"): "0"},
    {("model", "f_dw"): "1"},
    {("model", "n_ss"): "1"},
    {("response", "lines"): "0 1; 1e12 1"},
    {("response", "gamma"): "1e-300 rad/s"},
    {("response", "gamma"): "1e-300 rad/s", ("scan", "grid"): "-1e308 0 5"},
    {("response", "gamma"): "1e300 rad/s"},
    {("geometry", "U0"): "5e-290 rad/s"},
    {("scan", "out"): "sub/name"},
    {("scan", "grid"): "-1 1 2"},
    {("geometry", "U0"): "2e-290 rad/s"},
    {("geometry", "lambda_dip"): "1e300 m"},
    {("geometry", "lambda_dip"): "1e12 m"},
    {("geometry", "lambda_brg"): "1e-300 m"},
    {("geometry", "lambda_dip"): "1e300 m", ("geometry", "angle"): "10 deg"},
    {("model", "kind"): "perfect", ("model", "n"): "1e30 cm^-3",
     ("scan", "delta_lambda"): "1e300 nm"},
    {("model", "n"): "1e30 cm^-3", ("scan", "delta_lambda"): "1e290 nm"},
    {("scan", "out"): "a" * 300},
    {("model", "n"): "0 cm^-3", ("scan", "delta_lambda"): "1e300 nm"},
], ids=lambda entries: ", ".join(f"{key} = {value:.40}"
                                 for (_, key), value in entries.items()))
def test_edge_configs_end_in_an_exit_code(tmp_path, entries):
    # every output command either runs or is refused with a one-line error;
    # no exception (a RuntimeWarning included) escapes main()
    path = tmp_path / "run.cfg"
    path.write_text(_config_text({("model", "n_s"): "10", ("model", "n_ss"): "4",
                                  **entries}), encoding="utf-8")
    for command in cli.COMMANDS:
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--svg"]) in (0, 2, 4), command


def test_longest_file_name_fits_in_255_bytes(tmp_path, capsys):
    # 240 bytes of out plus "_saturation.csv" is 255: written; 241 is refused
    path = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for size, code in ((240, 0), (241, 2)):
        path.write_text(FAST_CONFIG.replace("out = run", "out = " + "a" * size),
                        encoding="utf-8")
        assert main(["scan-atoms", "--config", str(path), "--out", str(out)]) == code
    assert [p.name for p in out.iterdir()] == ["a" * 240 + "_saturation.csv"]
    line = FAST_CONFIG.splitlines().index("out = run") + 1
    assert capsys.readouterr().err.startswith(
        f"config error: line {line}: out is 241 bytes")


def test_scan_atoms_refuses_a_cloud_at_zero_temperature(tmp_path, capsys):
    # at T = 0 the cloud has no radial width, so N atoms have no density;
    # the other commands take T = 0
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG + "[geometry]\nT = 0 K\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["scan-atoms", "--config", str(path), "--out", str(out)]) == 2
    assert "needs [geometry] T > 0" in capsys.readouterr().err
    assert not out.exists()
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0


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
    # only the boundary-value oracle needs scipy: it is imported when called,
    # so that every CLI process starts without it; nothing loads
    # multiprocessing, and the CSV formatter's tables are built on first use
    code = ("import sys, braggstack.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')), "
            "braggstack.tableio._tables.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[] 0"
