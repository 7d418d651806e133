"""Command-line interface.

Subcommands: spectrum, scan-lattice, scan-atoms, profile, bands, powers,
verify.  Each reads the run configuration (all units explicit, defaults
echoed into output metadata) and writes CSV tables and optional SVG plots
whose bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, default_config_text, parse_config
from .engine import field_profile, scatter, chain_matrix
from .experiments import atom_number_to_density, band_structure, detected_powers, \
    lattice_constant_scan, saturation_scan, spectrum, sweep_scatter
from .svgplot import Series, render_svg, spectrum_series, write_svg
from .tableio import write_csv, write_spectrum_csv
from .verify import run_verification


def _load_config(args) -> RunConfig:
    if args.config is None:
        text = default_config_text()
    else:
        text = Path(args.config).read_text(encoding="utf-8")
    return parse_config(text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_metadata(run: RunConfig) -> dict:
    return dict(run.echo)


def cmd_spectrum(args) -> int:
    run = _load_config(args)
    out = _out_dir(args)
    chain = run.build_chain()
    grid = run.scan.detuning_grid()
    table = spectrum(chain, grid, run.response, run.geometry,
                     metadata=_echo_metadata(run))
    csv_path = out / f"{run.scan.out}.csv"
    write_spectrum_csv(table, csv_path)
    print(f"wrote {csv_path}")
    if args.svg:
        series = [Series(table.delta_over_gamma, table.R, "R"),
                  Series(table.delta_over_gamma, table.T, "T"),
                  Series(table.delta_over_gamma, table.A, "A")]
        svg_path = out / f"{run.scan.out}.svg"
        write_svg(svg_path, render_svg(series, "delta / Gamma", "coefficient"))
        print(f"wrote {svg_path}")
    return 0


def cmd_scan_lattice(args) -> int:
    run = _load_config(args)
    out = _out_dir(args)
    grid = run.scan.detuning_grid()
    tables = lattice_constant_scan(
        run.scan.delta_lambdas, run.build_chain, grid, run.response,
        run.geometry)
    for dl, table in zip(run.scan.delta_lambdas, tables):
        table.metadata.update(_echo_metadata(run))
        path = out / f"{run.scan.out}_dl{dl * 1e9:+.3f}nm.csv"
        write_spectrum_csv(table, path)
        print(f"wrote {path}")
    if args.svg:
        svg_path = out / f"{run.scan.out}_family.svg"
        write_svg(svg_path, render_svg(spectrum_series(tables),
                                       "delta / Gamma", "R"))
        print(f"wrote {svg_path}")
    return 0


def cmd_scan_atoms(args) -> int:
    run = _load_config(args)
    out = _out_dir(args)
    numbers, max_r = saturation_scan(
        run.scan.atom_numbers(), run.geometry, run.response,
        n_s=run.model.n_s, f_dw=run.model.f_dw, n_ss=run.model.n_ss,
        delta_over_gamma=run.scan.detuning_grid())
    densities = np.array([atom_number_to_density(n, run.geometry)
                          for n in numbers])
    path = out / f"{run.scan.out}_saturation.csv"
    write_csv(path, {"atom_number": numbers, "density_m3": densities,
                     "max_R": max_r}, _echo_metadata(run))
    print(f"wrote {path}")
    if args.svg:
        svg_path = out / f"{run.scan.out}_saturation.svg"
        write_svg(svg_path, render_svg(
            [Series(numbers, max_r, "max R")], "atom number", "max R"))
        print(f"wrote {svg_path}")
    return 0


def cmd_profile(args) -> int:
    run = _load_config(args)
    out = _out_dir(args)
    chain = run.build_chain()
    delta = run.scan.profile_delta * run.response.gamma
    z, intensity = field_profile(chain, delta, run.scan.samples_per_gap,
                                 run.response, run.geometry)
    meta = _echo_metadata(run)
    meta["profile_delta_over_gamma"] = f"{run.scan.profile_delta:g}"
    path = out / f"{run.scan.out}_profile.csv"
    write_csv(path, {"z_m": z,
                     "z_over_lambda_dip": z / run.geometry.lambda_dip,
                     "intensity": intensity}, meta)
    print(f"wrote {path}")
    if args.svg:
        svg_path = out / f"{run.scan.out}_profile.svg"
        write_svg(svg_path, render_svg(
            [Series(z / run.geometry.lambda_dip, intensity, "")],
            "z / lambda_dip", "I / I_in"))
        print(f"wrote {svg_path}")
    return 0


def cmd_bands(args) -> int:
    run = _load_config(args)
    out = _out_dir(args)
    chain = run.build_chain()
    grid = run.scan.detuning_grid()
    theta, rho = band_structure(chain, grid, run.response, run.geometry)
    path = out / f"{run.scan.out}_bands.csv"
    write_csv(path, {"delta_over_gamma": grid, "re_theta": theta.real,
                     "im_theta": theta.imag, "dos": rho}, _echo_metadata(run))
    print(f"wrote {path}")
    if args.svg:
        svg_path = out / f"{run.scan.out}_bands.svg"
        write_svg(svg_path, render_svg(
            [Series(grid, theta.real, "Re theta"),
             Series(grid, theta.imag, "Im theta")],
            "delta / Gamma", "Bloch phase (rad)"))
        print(f"wrote {svg_path}")
    return 0


def cmd_powers(args) -> int:
    run = _load_config(args)
    out = _out_dir(args)
    chain = run.build_chain()
    grid = run.scan.detuning_grid()
    res = sweep_scatter(chain, grid * run.response.gamma, run.response,
                        run.geometry)
    reading = detected_powers(res, run.scan.eta, run.scan.p_i)
    meta = _echo_metadata(run)
    path = out / f"{run.scan.out}_powers.csv"
    write_csv(path, {"delta_over_gamma": grid, "P_r_W": reading.p_r,
                     "P_t_W": reading.p_t, "P_a_W": reading.p_a}, meta)
    print(f"wrote {path}")
    if args.svg:
        svg_path = out / f"{run.scan.out}_powers.svg"
        write_svg(svg_path, render_svg(
            [Series(grid, reading.p_r * 1e6, "P_r"),
             Series(grid, reading.p_t * 1e6, "P_t"),
             Series(grid, reading.p_a * 1e6, "P_a")],
            "delta / Gamma", "power (uW)"))
        print(f"wrote {svg_path}")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(n_chains=args.chains)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed += not res.passed
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


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
                    "via transfer matrices")
    parser.add_argument("--version", action="version",
                        version=f"braggstack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", parents=[common],
                   help="R/T/A/phi spectrum over the detuning grid"
                   ).set_defaults(func=cmd_spectrum)
    sub.add_parser("scan-lattice", parents=[common],
                   help="family of spectra over lattice-constant mismatches"
                   ).set_defaults(func=cmd_scan_lattice)
    sub.add_parser("scan-atoms", parents=[common],
                   help="peak reflectivity vs atom number"
                   ).set_defaults(func=cmd_scan_atoms)
    sub.add_parser("profile", parents=[common],
                   help="intensity profile along the lattice"
                   ).set_defaults(func=cmd_profile)
    sub.add_parser("bands", parents=[common],
                   help="Bloch phase and density of states"
                   ).set_defaults(func=cmd_bands)
    sub.add_parser("powers", parents=[common],
                   help="detected powers P_r, P_t, P_a"
                   ).set_defaults(func=cmd_powers)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the oracle and invariant suite")
    p_verify.add_argument("--chains", type=int, default=500,
                          help="randomized chains for the oracle check")
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


if __name__ == "__main__":
    sys.exit(main())
