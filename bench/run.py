"""Benchmark of braggstack: CLI sessions, wide-grid sweeps, opaque flat chains.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from the root of a checkout; braggstack is imported from ./src.  Each
measured process runs with one thread and without BRAGGSTACK_THREADS, one at
a time.  The last line of stdout is the result: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics.  The line before it
holds the run environment and the median, quartiles and sample count of every
metric.  --all runs every workload with tracing off and on, prints a table
of all metrics and optionally writes the results as JSON.  Why each workload
exists is in NOTES.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli-default", "wide-grid", "opaque-flat")
COMMANDS = ("spectrum", "scan-lattice", "scan-atoms", "profile", "bands",
            "powers", "verify")
PROBES = ("two_component_5000", "perfect_2000", "perfect_9000", "profile_1500",
          "profile_3000")
LAYERS = ("config", "models", "response", "engine", "experiments", "tableio",
          "svgplot", "verify", "cli")
SETUP_SAMPLES = 3
CLI_MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import.braggstack_s": "s", "import.cli_s": "s",
    "config.parse_ms": "ms", "config.default_text_ms": "ms",
    "models.build_ms": "ms", "models.slabs": "count",
    "response.zeta_ms": "ms", "response.zeta_evals": "count.computed",
    "engine.unit_cell_ms": "ms", "engine.matrix_power_ms": "ms",
    "engine.scatter_ms": "ms", "engine.bloch_phase_ms": "ms",
    "engine.field_profile_ms": "ms", "engine.products": "count.computed",
    "engine.slab_points": "count.computed", "engine.bytes_computed": "B.computed",
    "experiments.spectrum_ms": "ms", "experiments.band_structure_ms": "ms",
    "experiments.saturation_scan_ms": "ms",
    "experiments.lattice_constant_scan_ms": "ms",
    "experiments.radial_average_ms": "ms",
    "experiments.reflection_minima_ms": "ms", "experiments.oracle_ms": "ms",
    "experiments.oracle_max_err": "1",
    "tableio.render_csv_ms": "ms", "tableio.write_ms": "ms",
    "tableio.rows": "count", "tableio.csv_bytes": "B",
    "svgplot.render_svg_ms": "ms", "svgplot.svg_bytes": "B",
    "verify.run_ms": "ms",
    **{f"cli.main.{c}_ms": "ms" for c in COMMANDS},
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    **{f"probe.{p}_ms": "ms" for p in PROBES},
    **{f"probe.{p}_ok": "bool" for p in PROBES},
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_frac": "1",
    "fail_frac": "1",
}


class BenchError(RuntimeError):
    pass


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k != "BRAGGSTACK_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env):
    """Run one process to completion: (seconds, exit code, peak RSS MB, stdout)."""
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (elapsed, proc.returncode, usage.ru_maxrss / 1024.0,
                out.read().decode(), err.read().decode())


def run_worker(args, env):
    elapsed, code, rss, out, err = run_child(
        [sys.executable, str(WORKER), *map(str, args)], env)
    if code != 0:
        raise BenchError(f"worker {' '.join(map(str, args))} exited with "
                         f"{code}:\n{err[-2000:]}")
    return elapsed, json.loads(out.strip().splitlines()[-1])


def summarize(values):
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def cache_bytes(level):
    """Size of the CPU cache at `level`, or None where the OS does not say."""
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) == level and \
                    (index / "type").read_text().strip() != "Instruction":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            return None
    return None


def environment(versions):
    wide = 200_000
    return {"nproc": len(os.sched_getaffinity(0)), **versions,
            "l2_bytes": cache_bytes(2), "l3_bytes": cache_bytes(3),
            "wide_grid_points": wide,
            "wide_stack_bytes": wide * 4 * 16,
            "wide_zeta_bytes_per_chain": wide * 21 * 16,
            "threads": {k: "1" for k in THREAD_VARS},
            "BRAGGSTACK_THREADS": None}


def setup_samples(workload, seed, env):
    times, rows = [], []
    for _ in range(SETUP_SAMPLES):
        elapsed, row = run_worker(["--workload", workload, "--seed", seed,
                                   "--setup-only"], env)
        times.append(elapsed)
        rows.append(row)
    return times, rows


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_rounds(seed, seconds, min_rounds, env, work):
    """Rounds of the seven commands in fresh processes, one at a time: at
    least `min_rounds`, then more while the next fits in `seconds`."""
    shift = seed % len(COMMANDS)
    order = COMMANDS[shift:] + COMMANDS[:shift]
    rounds, problems = [], []
    start, last = perf_counter(), 0.0
    while len(rounds) < min_rounds or \
            perf_counter() - start + last <= seconds:
        out = work / f"r{len(rounds)}"
        row = {}
        for cmd in order:
            elapsed, code, rss, stdout, err = run_child(
                [sys.executable, "-m", "braggstack.cli", cmd, "--svg",
                 "--out", str(out)], env)
            last_line = stdout.rstrip().rsplit("\n", 1)[-1]
            ok = code == 0 and (cmd != "verify" or last_line.startswith("all "))
            if not ok:
                problems.append(f"{cmd}: exit {code}: {err.strip()[-300:]}")
            row[cmd] = {"s": elapsed, "rss_mb": rss, "ok": ok}
        files = {p.name: file_digest(p) for p in sorted(out.iterdir())}
        if rounds and files != rounds[0]["files"]:
            problems.append(f"round {len(rounds)}: output bytes differ from "
                            f"round 0")
            for cmd in row:
                row[cmd]["ok"] = False
        rounds.append({"cmds": row, "files": files})
        last = sum(r["s"] for r in row.values())
        if len(rounds) > 1:
            shutil.rmtree(out)
    return order, rounds, problems


def code_digest():
    """Digest of the library and benchmark sources and the seed reference."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py"),
                     BENCH / "reference.json"]):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def output_sizes(directory):
    rows = csv_bytes = svg_bytes = 0
    for p in directory.iterdir():
        data = p.read_bytes()
        if p.suffix == ".csv":
            csv_bytes += len(data)
            comments = data.count(b"\n#") + data.startswith(b"#")
            rows += data.count(b"\n") - comments - 1
        elif p.suffix == ".svg":
            svg_bytes += len(data)
    return rows, csv_bytes, svg_bytes


def run_cli_default(seed, seconds, trace, env, work):
    # pass_s is reported by untraced runs only; a traced run makes one round.
    min_rounds = 1 if trace else CLI_MIN_ROUNDS
    order, rounds, problems = cli_rounds(seed, seconds, min_rounds, env, work)
    r0 = work / "r0"
    rows, csv_bytes, svg_bytes = output_sizes(r0)
    # The library check of the CLI files is a function of their bytes and of
    # the sources alone.  Files byte-identical to ones that passed it with the
    # same sources in this checkout have passed it; an untraced run skips it.
    verified = WORK / f"cli-verified-{code_digest()[:20]}.json"
    known = json.loads(verified.read_text()) if verified.is_file() else {}
    if not trace and known.get("files") == rounds[0]["files"]:
        check = {"problems": {c: [] for c in COMMANDS},
                 "versions": known["versions"]}
    else:
        _, check = run_worker(["--workload", "cli-default", "--seed", seed,
                               "--cli-dir", r0, "--trace", trace,
                               "--work-dir", work,
                               "--commands", ",".join(order)], env)
        if not any(check["problems"].values()):
            verified.write_text(json.dumps({"files": rounds[0]["files"],
                                            "versions": check["versions"]}))
    bad = {cmd for cmd, found in check["problems"].items() if found}
    if trace:
        bad |= {cmd for cmd, found in check["trace"]["problems"].items() if found}
        problems += sum(check["trace"]["problems"].values(), [])
    problems += sum(check["problems"].values(), [])
    per_cmd = {c: [r["cmds"][c]["s"] for r in rounds] for c in COMMANDS}
    failed = sum(not r["cmds"][c]["ok"] or c in bad
                 for r in rounds for c in COMMANDS)
    samples = {"pass_s": [sum(r["cmds"][c]["s"] for c in COMMANDS)
                          for r in rounds],
               **{f"cli.{c}_s": v for c, v in per_cmd.items()}}
    values = {"peak_rss_mb": max(r["cmds"][c]["rss_mb"]
                                 for r in rounds for c in COMMANDS),
              "tableio.rows": rows, "tableio.csv_bytes": csv_bytes,
              "svgplot.svg_bytes": svg_bytes,
              "fail_frac": failed / (len(rounds) * len(COMMANDS))}
    layer_samples = {}
    if trace:
        layer_samples = {k: [v] for k, v in check["trace"]["layer"].items()}
        values["trace.overhead_frac"] = check["trace"]["overhead_frac"]
    return {"attempted": len(rounds) * len(COMMANDS), "failed": failed,
            "problems": problems, "samples": samples,
            "layer_samples": layer_samples, "values": values,
            "versions": check["versions"],
            "spans": check.get("trace", {}).get("spans")}


def run_in_process(workload, seed, seconds, trace, env):
    _, res = run_worker(["--workload", workload, "--seed", seed,
                         "--seconds", seconds, "--trace", trace], env)
    plain = [p for p in res["passes"] if not (p["traced"] or p["warmup"])]
    traced = [p for p in res["passes"] if p["traced"]]
    layer_samples = {}
    for p in traced:
        for k, v in p["layer"].items():
            layer_samples.setdefault(k, []).append(v)
    values = {"peak_rss_mb": res["peak_rss_mb"],
              "experiments.oracle_max_err": res["oracle_max_err"],
              **res["counts"],
              "fail_frac": (res["failed"] + res["probe_failures"])
              / (res["attempted"] + len(res["probes"]))}
    for name, probe in res["probes"].items():
        values[f"probe.{name}_ms"] = probe["ms"]
        values[f"probe.{name}_ok"] = probe["ok"]
    if traced:
        values["trace.overhead_frac"] = (
            statistics.median(p["seconds"] for p in traced)
            / statistics.median(p["seconds"] for p in plain) - 1.0)
    ops = {}
    for p in plain:
        for k, v in p["ops"].items():
            ops.setdefault(k, []).append(v)
    return {"attempted": res["attempted"], "failed": res["failed"],
            "problems": res["problems"],
            "samples": {"pass_s": [p["seconds"] for p in plain]},
            "layer_samples": layer_samples, "values": values,
            "versions": res["versions"], "ops": ops, "spans": res.get("spans")}


def run_workload(workload, seed, seconds, trace):
    if not (ROOT / "src" / "braggstack" / "__init__.py").is_file():
        raise BenchError(f"no braggstack sources under {ROOT / 'src'}")
    first_in_checkout = not WORK.exists()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    env = pinned_env()
    try:
        if first_in_checkout:
            # bytecode and file caches are filled once, outside any timing
            run_worker(["--workload", workload, "--setup-only"], env)
        if workload == "cli-default":
            res = run_cli_default(seed, seconds, trace, env, work)
        elif workload in WORKLOADS:
            res = run_in_process(workload, seed, seconds, trace, env)
        else:
            raise BenchError(f"unknown workload {workload!r}")
        setup_times, setup_rows = setup_samples(workload, seed, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = dict(res["samples"], setup_s=setup_times)
    for key in setup_rows[0]["setup"]:
        samples[key] = [row["setup"][key] for row in setup_rows]
    for key, vals in res["layer_samples"].items():
        samples[key] = vals
    samples.update({k: [v] for k, v in res["values"].items()})
    stats = {k: summarize(v) for k, v in samples.items()}
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": stats[k]["median"] if k in stats else 0, "unit": unit}
               for k, unit in wanted.items()}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "env": environment(setup_rows[0]["versions"]),
               "stats": stats,
               "ops_ms": {k: summarize([1e3 * x for x in v])
                          for k, v in res.get("ops", {}).items()},
               "problems": res["problems"][:50]}
    if trace:
        details["spans"] = res["spans"]
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, details


def print_table(rows):
    names = list(END_TO_END) + list(PER_LAYER)
    units = {**END_TO_END, **PER_LAYER}
    print(f"{'metric':40s} {'unit':>15s} " + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        cells = " ".join(f"{rows[w]['metrics'][name]['value']:14.6g}"
                         for w in WORKLOADS)
        print(f"{name:40s} {units[name]:>15s} {cells}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    p.add_argument("--out", type=Path, help="with --all: write results here")
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("give --workload or --all")
    try:
        if not args.all:
            result, details = run_workload(args.workload, args.seed,
                                           args.seconds, args.trace)
            print(json.dumps(details))
            print(json.dumps(result))
            return 0
        rows, everything = {}, {}
        for w in WORKLOADS:
            plain, plain_details = run_workload(w, args.seed, args.seconds, 0)
            traced, traced_details = run_workload(w, args.seed, args.seconds, 1)
            traced_details.pop("spans", None)
            rows[w] = {**plain, "metrics": {**plain["metrics"], **traced["metrics"]},
                       "correct": plain["correct"] and traced["correct"]}
            everything[w] = {"untraced": {**plain, "details": plain_details},
                             "traced": {**traced, "details": traced_details}}
        print_table(rows)
        if args.out:
            args.out.write_text(json.dumps(everything, indent=1, sort_keys=True)
                                + "\n")
        return 0 if all(r["correct"] for r in rows.values()) else 1
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
