"""In-process side of the benchmark; `run.py` starts it as a fresh process.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
        run an in-process workload (wide-grid, opaque-flat) for S seconds
    python3 bench/worker.py --workload W --seed N --setup-only
        import, parse the default config and build W's inputs, then exit
    python3 bench/worker.py --workload cli-default --seed N --cli-dir D --trace T
        check the CLI outputs in D against the library; with T=1 also time
        `braggstack.cli.main` in-process and its public parts
    python3 bench/worker.py --record-reference
        rewrite reference.json from the checked-out library

Prints one JSON object on stdout.  Imports braggstack from ../src.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
clock = time.perf_counter


def timed_setup(workload, seed):
    """Fresh-process set-up, each step timed: import, config, inputs."""
    t = {}
    t0 = clock()
    import braggstack  # noqa: F401
    t["import.braggstack_s"] = clock() - t0
    t0 = clock()
    import braggstack.cli  # noqa: F401
    t["import.cli_s"] = clock() - t0
    from braggstack.config import default_config_text, parse_config
    t0 = clock()
    text = default_config_text()
    t["config.default_text_ms"] = 1e3 * (clock() - t0)
    t0 = clock()
    parse_config(text)
    t["config.parse_ms"] = 1e3 * (clock() - t0)
    import workloads
    t0 = clock()
    inp = workloads.build_inputs(workload, seed)
    t["models.build_ms"] = 1e3 * (clock() - t0)
    t["models.slabs"] = sum(c.total_slabs for c in inp["chains"])
    return t, inp


def versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its spans (ms)."""
    from tracing import duration, self_times, totals
    tot = totals(spans)
    out = {f"{layer}.self_ms": 1e3 * s for layer, s in self_times(spans).items()}
    for metric, name in (
            ("response.zeta_ms", "response.zeta"),
            ("engine.unit_cell_ms", "engine.unit_cell_matrix"),
            ("engine.matrix_power_ms", "engine.matrix_power"),
            ("engine.scatter_ms", "engine.scatter"),
            ("engine.bloch_phase_ms", "engine.bloch_phase"),
            ("engine.field_profile_ms", "engine.field_profile"),
            ("experiments.spectrum_ms", "experiments.spectrum"),
            ("experiments.band_structure_ms", "experiments.band_structure"),
            ("experiments.saturation_scan_ms", "experiments.saturation_scan"),
            ("experiments.lattice_constant_scan_ms",
             "experiments.lattice_constant_scan"),
            ("experiments.radial_average_ms", "experiments.radial_average"),
            ("experiments.reflection_minima_ms", "experiments.reflection_minima"),
            ("experiments.oracle_ms", "experiments.solve_boundary_value"),
            ("tableio.render_csv_ms", "tableio.render_csv"),
            ("tableio.write_ms", "tableio.write"),
            ("svgplot.render_svg_ms", "svgplot.render_svg"),
            ("verify.run_ms", "verify.run_verification")):
        if name in tot:
            out[metric] = 1e3 * tot[name]
    for s in spans:
        if s["name"] == "cli.main":
            out[f"cli.main.{s['op']}_ms"] = 1e3 * duration(s)
    return out


def run_workload(workload, inp, seconds, trace):
    """Passes over the workload's operations until `seconds` are used."""
    import workloads
    from tracing import Tracer
    reference = workloads.load_reference()
    ops = workloads.ops_for(workload, inp)
    plain, tracer = Tracer(False), Tracer(True)
    result = {"probes": {}, "problems": [], "passes": []}

    probe_failures = 0
    for name, probe in inp.get("probes", {}).items():
        elapsed, problems = workloads.run_probe(name, probe, inp, clock)
        result["probes"][name] = {"ms": 1e3 * elapsed, "ok": int(not problems)}
        result["problems"] += problems
        probe_failures += bool(problems)

    digests, attempted, failed, oracle_err = {}, 0, 0, []
    last = start = 0.0
    # Pass 0 warms the allocator and caches and is checked but not reported;
    # the `seconds` budget starts after it.  A traced run then alternates
    # plain and traced passes.  An untraced run reports the median of at
    # least three passes even where they take longer than `seconds`.
    min_passes = 3 if trace else 4
    while len(result["passes"]) < min_passes or \
            clock() - start + last <= seconds:
        index = len(result["passes"])
        traced = bool(trace) and index > 0 and index % 2 == 0
        tr = tracer if traced else plain
        state, times, first_span = {}, {}, len(tracer.spans)
        for op in ops:
            attempted += 1
            tracer.op = f"{index}:{op.name}"
            op_first = len(tracer.spans)
            t0 = clock()
            try:
                out = op.run(tr, state)
            except Exception as exc:  # a failed operation is counted, not fatal
                times[op.name] = clock() - t0
                failed += 1
                result["problems"].append(f"{op.name}: {type(exc).__name__}: "
                                          f"{str(exc)[:160]}")
                continue
            times[op.name] = clock() - t0
            if op.name in digests:
                problems = [] if workloads.digest(out) == digests[op.name] else \
                    [f"{op.name}: output differs from the first pass"]
            else:
                problems = op.full_check(out, state, reference)
                digests[op.name] = workloads.digest(out)
            if traced and op.decompose:
                with tracer.under(op_first):
                    problems += op.decompose(tracer, out)
            if problems:
                failed += 1
                result["problems"] += problems
            del out
        oracle_err += state.get("oracle_err", [])
        last = sum(times.values())
        if index == 0:
            start = clock()
        result["passes"].append({"warmup": index == 0, "traced": traced,
                                 "seconds": last,
                                 "ops": times,
                                 "layer": layer_metrics(tracer.spans[first_span:])
                                 if traced else {}})

    counts = workloads.add_counts(*(op.counts for op in ops))
    result.update(attempted=attempted, failed=failed,
                  probe_failures=probe_failures, counts=counts,
                  oracle_max_err=max(oracle_err, default=0.0),
                  peak_rss_mb=peak_rss_mb())
    if trace:
        result["spans"] = tracer.spans
    return result


def cli_expected(run, chain):
    """The CSV files each CLI command writes, rendered from library results."""
    import numpy as np
    import braggstack as bs
    from braggstack.tableio import SPECTRUM_COLUMNS

    cfg, geom, grid, scan = run.response, run.geometry, run.scan.detuning_grid(), \
        run.scan
    echo, base = dict(run.echo), scan.out

    def spectrum_file(table):
        return dict(zip(SPECTRUM_COLUMNS, (table.delta_over_gamma, table.R,
                                           table.T, table.A, table.phi))), \
            table.metadata

    out = {"spectrum": {f"{base}.csv": spectrum_file(bs.spectrum(
        chain, grid, cfg, geom, metadata=dict(echo)))}, "verify": {}}
    files = {}
    for dl, table in zip(scan.delta_lambdas, bs.lattice_constant_scan(
            scan.delta_lambdas, run.build_chain, grid, cfg, geom)):
        table.metadata.update(echo)
        table.metadata["delta_lambda_nm"] = f"{dl * 1e9:.6g}"
        files[f"{base}_dl{dl * 1e9:+.3f}nm.csv"] = spectrum_file(table)
    out["scan-lattice"] = files
    numbers, max_r = bs.saturation_scan(
        scan.atom_numbers(), geom, cfg, n_s=run.model.n_s, f_dw=run.model.f_dw,
        n_ss=run.model.n_ss, delta_over_gamma=grid)
    densities = np.array([bs.atom_number_to_density(n, geom) for n in numbers])
    out["scan-atoms"] = {f"{base}_saturation.csv": (
        {"atom_number": numbers, "density_m3": densities, "max_R": max_r}, echo)}
    z, intensity = bs.field_profile(chain, scan.profile_delta * cfg.gamma,
                                    scan.samples_per_gap, cfg, geom)
    meta = dict(echo, profile_delta_over_gamma=f"{scan.profile_delta:g}")
    out["profile"] = {f"{base}_profile.csv": (
        {"z_m": z, "z_over_lambda_dip": z / geom.lambda_dip,
         "intensity": intensity}, meta)}
    theta, rho = bs.band_structure(chain, grid, cfg, geom)
    out["bands"] = {f"{base}_bands.csv": (
        {"delta_over_gamma": grid, "re_theta": theta.real,
         "im_theta": theta.imag, "dos": rho}, echo)}
    reading = bs.detected_powers(bs.sweep_scatter(chain, grid * cfg.gamma, cfg,
                                                  geom), scan.eta, scan.p_i)
    out["powers"] = {f"{base}_powers.csv": (
        {"delta_over_gamma": grid, "P_r_W": reading.p_r, "P_t_W": reading.p_t,
         "P_a_W": reading.p_a}, echo)}
    return out


def check_cli(inp, cli_dir):
    """Problems per command: read-back values and bytes vs the library."""
    import numpy as np
    from braggstack.tableio import read_csv, render_csv

    problems = {}
    for cmd, files in cli_expected(inp["run"], inp["chain"]).items():
        found = []
        for fname, (columns, meta) in files.items():
            path = cli_dir / fname
            if not path.exists():
                found.append(f"{cmd}: {fname} missing")
                continue
            got, _ = read_csv(path)
            if list(got) != list(columns) or not all(
                    np.array_equal(got[k], np.asarray(v, dtype=float))
                    for k, v in columns.items()):
                found.append(f"{cmd}: {fname} differs from the library result")
            if path.read_bytes() != render_csv(columns, meta).encode("utf-8"):
                found.append(f"{cmd}: {fname} bytes differ from a library render")
        problems[cmd] = found
    return problems


def trace_cli(inp, cli_dir, work_dir, commands):
    """In-process `main` per command, untraced and traced, plus the parts of
    `profile` and `verify`; outputs must match the subprocess files."""
    import braggstack as bs
    from braggstack import cli
    from braggstack.config import default_config_text, parse_config
    from braggstack.svgplot import Series, render_svg
    from braggstack.tableio import render_csv
    from braggstack.verify import run_verification
    from tracing import Tracer

    tracer, plain = Tracer(True), Tracer(False)
    plain_s, traced_s, problems = 0.0, 0.0, {c: [] for c in commands}
    for i, cmd in enumerate(commands):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tr = tracer if traced else plain
            tracer.op = cmd
            out = work_dir / ("traced" if traced else "plain")
            argv = [cmd, "--svg", "--out", str(out)]
            t0 = clock()
            with contextlib.redirect_stdout(io.StringIO()):
                code = tr.call("cli.main", cli.main, argv)
            elapsed = clock() - t0
            if traced:
                traced_s += elapsed
                main_span = tracer.last
            else:
                plain_s += elapsed
            if code != 0:
                problems[cmd].append(f"{cmd}: in-process main returned {code}")
        for path in sorted((work_dir / "traced").glob("*")):
            if path.read_bytes() != (cli_dir / path.name).read_bytes():
                problems[cmd].append(f"{cmd}: {path.name} differs between passes")
        for path in (work_dir / "traced").glob("*"):
            path.unlink()

        with tracer.under(main_span):
            if cmd == "profile":
                text = tracer.call("config.default_config_text", default_config_text)
                run = tracer.call("config.parse_config", parse_config, text)
                m, geom, cfg, scan = run.model, run.geometry, run.response, run.scan
                chain = tracer.call("models.two_component_lattice",
                                    bs.two_component_lattice, m.n, m.f_dw, m.n_s,
                                    m.n_ss, geom)
                z, inten = tracer.call("engine.field_profile", bs.field_profile,
                                       chain, scan.profile_delta * cfg.gamma,
                                       scan.samples_per_gap, cfg, geom)
                cols = {"z_m": z, "z_over_lambda_dip": z / geom.lambda_dip,
                        "intensity": inten}
                meta = dict(run.echo,
                            profile_delta_over_gamma=f"{scan.profile_delta:g}")
                text = tracer.call("tableio.render_csv", render_csv, cols, meta)
                # write_csv is render_csv followed by this write of its text
                csv_path = work_dir / "parts_profile.csv"
                tracer.call("tableio.write", csv_path.write_bytes,
                            text.encode("utf-8"))
                svg = tracer.call("svgplot.render_svg", render_svg,
                                  [Series(z / geom.lambda_dip, inten, "")],
                                  "z / lambda_dip", "I / I_in")
                name = f"{scan.out}_profile"
                if text.encode() != (cli_dir / f"{name}.csv").read_bytes() or \
                        csv_path.read_bytes() != text.encode():
                    problems[cmd].append("profile: CSV parts differ from main")
                if svg.encode() != (cli_dir / f"{name}.svg").read_bytes():
                    problems[cmd].append("profile: SVG parts differ from main")
                csv_path.unlink()
            elif cmd == "verify":
                results = tracer.call("verify.run_verification", run_verification,
                                      500)
                if not all(r.passed for r in results):
                    problems[cmd].append("verify: a check failed in-process")
    return {"spans": tracer.spans, "layer": layer_metrics(tracer.spans),
            "overhead_frac": traced_s / plain_s - 1.0, "problems": problems}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="wide-grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--cli-dir", type=Path)
    p.add_argument("--work-dir", type=Path)
    p.add_argument("--commands", default="")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    setup, inp = timed_setup(args.workload, args.seed)
    if args.record_reference:
        record_reference()
        return 0
    out = {"setup": setup, "versions": versions()}
    if args.cli_dir is not None:
        out["problems"] = check_cli(inp, args.cli_dir)
        if args.trace:
            out["trace"] = trace_cli(inp, args.cli_dir, args.work_dir,
                                     args.commands.split(","))
    elif not args.setup_only:
        out.update(run_workload(args.workload, inp, args.seconds, args.trace))
    print(json.dumps(out))
    return 0


def record_reference():
    """Write the seed values that the output checks compare against.

    wide-grid is recorded first, so the periodic default spectrum, not the
    flat one, is the reference both workloads compare with.
    """
    import numpy as np
    import workloads
    from tracing import Tracer

    reference = {}
    for workload in ("wide-grid", "opaque-flat"):
        inp = workloads.build_inputs(workload, 0)
        state = {}
        for op in workloads.ops_for(workload, inp):
            out = op.run(Tracer(False), state)
            for name, view in (op.views(out) if op.views else {}).items():
                reference.setdefault(name, {k: np.asarray(v).tolist()
                                            for k, v in view.items()})
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
