"""Command-line interface.

Subcommands: spectrum, scan-lattice, scan-atoms, profile, bands, powers,
verify.  Each reads the run configuration (all units explicit, defaults
echoed into output metadata) and writes CSV tables and optional SVG plots
whose bytes are identical across runs.  The six output commands are rows of
`COMMANDS`; one runner loads the configuration and writes what each
command's compute function returns.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, default_config_text, parse_config
from .engine import EngineError, field_profile
from .experiments import atom_number_to_density, band_structure, detected_powers, \
    lattice_constant_scan, saturation_scan, spectrum, sweep_scatter
from .svgplot import Series, spectrum_series, svg_blocks
from .tableio import spectrum_columns, write_blocks, write_csv
from .verify import run_verification

# A compute function maps a RunConfig to (csv_files, svg): csv_files lists
# (name suffix, columns, metadata) and svg is (name suffix, series, x label,
# y label).  Files are named <scan.out><suffix>.csv/.svg, and every CSV also
# records the run's echoed configuration.


def _spectrum(run):
    table = spectrum(run.build_chain(), run.scan.detuning_grid(), run.response,
                     run.geometry)
    series = [Series(table.delta_over_gamma, table.R, "R"),
              Series(table.delta_over_gamma, table.T, "T"),
              Series(table.delta_over_gamma, table.A, "A")]
    return [("", spectrum_columns(table), table.metadata)], \
        ("", series, "delta / Gamma", "coefficient")


def _scan_lattice(run):
    tables = lattice_constant_scan(
        run.scan.delta_lambdas, run.build_chain, run.scan.detuning_grid(),
        run.response, run.geometry)
    files = [(f"_dl{dl * 1e9:+.3f}nm", spectrum_columns(table), table.metadata)
             for dl, table in zip(run.scan.delta_lambdas, tables)]
    return files, ("_family", spectrum_series(tables), "delta / Gamma", "R")


def _scan_atoms(run):
    # saturation_scan builds the two-component model at every atom number
    if run.model.kind != "two_component":
        raise ConfigError(f"scan-atoms needs [model] kind = two_component, "
                          f"got kind = {run.model.kind}")
    numbers, max_r = saturation_scan(
        run.scan.atom_numbers(), run.geometry, run.response,
        n_s=run.model.n_s, f_dw=run.model.f_dw, n_ss=run.model.n_ss,
        delta_over_gamma=run.scan.detuning_grid())
    densities = np.array([atom_number_to_density(n, run.geometry)
                          for n in numbers])
    columns = {"atom_number": numbers, "density_m3": densities, "max_R": max_r}
    return [("_saturation", columns, {})], \
        ("_saturation", [Series(numbers, max_r, "max R")], "atom number", "max R")


def _profile(run):
    z, intensity = field_profile(
        run.build_chain(), run.scan.profile_delta * run.response.gamma,
        run.scan.samples_per_gap, run.response, run.geometry)
    z_dip = z / run.geometry.lambda_dip
    columns = {"z_m": z, "z_over_lambda_dip": z_dip, "intensity": intensity}
    meta = {"profile_delta_over_gamma": f"{run.scan.profile_delta:g}"}
    return [("_profile", columns, meta)], \
        ("_profile", [Series(z_dip, intensity, "")], "z / lambda_dip", "I / I_in")


def _bands(run):
    grid = run.scan.detuning_grid()
    theta, rho = band_structure(run.build_chain(), grid, run.response,
                                run.geometry)
    columns = {"delta_over_gamma": grid, "re_theta": theta.real,
               "im_theta": theta.imag, "dos": rho}
    series = [Series(grid, theta.real, "Re theta"),
              Series(grid, theta.imag, "Im theta")]
    return [("_bands", columns, {})], \
        ("_bands", series, "delta / Gamma", "Bloch phase (rad)")


def _powers(run):
    grid = run.scan.detuning_grid()
    res = sweep_scatter(run.build_chain(), grid * run.response.gamma,
                        run.response, run.geometry)
    reading = detected_powers(res, run.scan.eta, run.scan.p_i)
    columns = {"delta_over_gamma": grid, "P_r_W": reading.p_r,
               "P_t_W": reading.p_t, "P_a_W": reading.p_a}
    series = [Series(grid, reading.p_r * 1e6, "P_r"),
              Series(grid, reading.p_t * 1e6, "P_t"),
              Series(grid, reading.p_a * 1e6, "P_a")]
    return [("_powers", columns, {})], \
        ("_powers", series, "delta / Gamma", "power (uW)")


COMMANDS = {
    "spectrum": (_spectrum, "R/T/A/phi spectrum over the detuning grid"),
    "scan-lattice": (_scan_lattice,
                     "family of spectra over lattice-constant mismatches"),
    "scan-atoms": (_scan_atoms, "peak reflectivity vs atom number"),
    "profile": (_profile, "intensity profile along the lattice"),
    "bands": (_bands, "Bloch phase and density of states"),
    "powers": (_powers, "detected powers P_r, P_t, P_a"),
}


def run_command(compute, args) -> int:
    """Load the configuration, compute, and write the CSV files and SVG."""
    if args.config is None:
        text = default_config_text()
    else:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}",
                              exc.object[:exc.start].count(b"\n") + 1) from None
    run = parse_config(text)
    csv_files, (svg_suffix, series, xlabel, ylabel) = compute(run)
    out = Path(args.out)  # made only now, so that a failed run leaves none
    out.mkdir(parents=True, exist_ok=True)
    for suffix, columns, metadata in csv_files:
        path = out / f"{run.scan.out}{suffix}.csv"
        write_csv(path, columns, {**metadata, **run.echo})
        print(f"wrote {path}")
    if args.svg:
        path = out / f"{run.scan.out}{svg_suffix}.svg"
        write_blocks(path, svg_blocks(series, xlabel, ylabel))
        print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(args.chains)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    failed = sum(not res.passed for res in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file (defaults used if omitted)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    common.add_argument("--svg", action="store_true",
                        help="also write an SVG quick-look plot")

    parser = argparse.ArgumentParser(
        prog="braggstack",
        description="Bragg reflection spectra of 1D cold-atom lattices "
                    "via scattering-matrix products")
    parser.add_argument("--version", action="version",
                        version=f"braggstack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (compute, help_text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text
                       ).set_defaults(func=partial(run_command, compute))
    # no --config; --out and --svg are ignored, so one command line fits all seven
    p_verify = sub.add_parser("verify", help="run the oracle and invariant suite")
    p_verify.add_argument("--chains", type=_positive_int, default=500,
                          help="randomized chains for the oracle check")
    p_verify.add_argument("--out", metavar="DIR", help="ignored by verify")
    p_verify.add_argument("--svg", action="store_true", help="ignored by verify")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
