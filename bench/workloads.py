"""Workload inputs, timed operations and output checks.

An operation is one public call into braggstack, or a short fixed sequence
of them, timed from outside.  Its output is checked in full the first time
it runs; later passes must reproduce the same bytes.  Inputs come from the
default run configuration and, where a workload has random parts, from the
seed; the library only ever sees the generated arrays.

Counts (`engine.products`, `engine.slab_points`, `engine.bytes_computed`,
`response.zeta_evals`) are computed from the inputs, not measured: a 2x2
product is one complex 2x2 matmul per grid point, and its computed bytes are
the two operands read plus the result written (3 x 64 B).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import braggstack as bs
from braggstack.config import default_config_text, parse_config

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WIDE_POINTS = 200_000           # 200k x 2 x 2 complex128 = 12.8 MB per stack
WIDE_STRIDE = 1000              # reference samples of a 200k-point output
SCAN_STRIDE = 10                # reference samples of a 1101-point output
PROFILE_STRIDE = 8192           # reference samples of a field profile
MISMATCHES_M = np.linspace(-2e-9, 2e-9, 9)
RADIAL_RINGS = 8
SPOT_CHECKS = 8                 # seeded grid points for the flat-vs-periodic check

DISORDER_PERIODS, DISORDER_NSS, DISORDER_CHAINS = 900, 10, 3
DISORDER_JITTER = 0.3           # per-slab density factor in [0.7, 1.3]
DISORDER_DETUNING = 3.0         # |delta| / Gamma of the single-detuning solves

PASSIVE_FLOOR = -1e-9
REF_TOL = 1e-9
FLAT_TOL = 1e-9
ORACLE_TOL = 1e-10
PROFILE_RTOL = 1e-6
# The density of states is a finite difference over a 2.75e-4 Gamma step, so
# rounding-level changes in theta show up ~10^4 times larger in it.
REL_TOL = {"dos": 1e-6}
BYTES_PER_PRODUCT = 3 * 4 * 16

COUNT_KEYS = ("engine.products", "engine.slab_points", "engine.bytes_computed",
              "response.zeta_evals")


@dataclass
class Op:
    name: str
    run: Callable            # run(tracer, state) -> output
    check: Callable          # check(output, state) -> list of problems
    views: Callable | None = None       # output -> {name: {key: seed values}}
    counts: dict = field(default_factory=dict)
    decompose: Callable | None = None   # decompose(tracer, output) -> problems

    def full_check(self, out, state, reference):
        problems = self.check(out, state)
        for name, view in (self.views(out) if self.views else {}).items():
            problems += compare(name, view, reference)
        return problems


# ---------------------------------------------------------------- helpers

def chain_counts(chain, points, power=True, flat_steps=0):
    """Computed work of one chain traversal over `points` detunings."""
    n = chain.n_slabs
    products = n + int(np.count_nonzero(chain.gap_after > 0.0))
    p = chain.periods
    if power and p > 1:
        products += bin(p).count("1") + p.bit_length() - 1
    return {"engine.products": products * points,
            "engine.slab_points": (n + flat_steps) * points,
            "engine.bytes_computed": products * points * BYTES_PER_PRODUCT,
            "response.zeta_evals": (n + flat_steps) * points}


def add_counts(*parts, times=1):
    return {k: times * sum(p.get(k, 0) for p in parts) for k in COUNT_KEYS}


def digest(obj, h=None):
    """Hash of every array in an output (metadata dicts excluded)."""
    top = h is None
    h = h or hashlib.sha256()
    if is_dataclass(obj):
        for f in fields(obj):
            if f.name != "metadata":
                digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            digest(x, h)
    else:
        h.update(np.ascontiguousarray(obj).tobytes())
    return h.hexdigest() if top else None


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def passive(name, big_r, big_t, big_a):
    arrays = [np.asarray(x, dtype=float) for x in (big_r, big_t, big_a)]
    if not all(np.all(np.isfinite(x)) for x in arrays):
        return [f"{name}: non-finite R/T/A"]
    r, t, a = arrays
    if r.min() < 0 or r.max() > 1 or t.min() < 0 or t.max() > 1 \
            or a.min() < PASSIVE_FLOOR:
        return [f"{name}: not passive (R in [{r.min():.3g}, {r.max():.3g}], "
                f"T in [{t.min():.3g}, {t.max():.3g}], min A {a.min():.3g})"]
    return []


def table_view(table, stride=1):
    return {"R": table.R[::stride], "T": table.T[::stride], "A": table.A[::stride]}


def compare(name, view, reference):
    """Problems where `view` differs from the recorded seed values."""
    if name not in reference:
        return [f"{name}: no recorded reference"]
    problems = []
    for key, got in view.items():
        got = np.asarray(got)
        want = np.asarray(reference[name][key], dtype=got.dtype)
        if got.shape != want.shape:
            problems.append(f"{name}.{key}: shape {got.shape} != {want.shape}")
            continue
        tol = REF_TOL if key not in REL_TOL \
            else REL_TOL[key] * np.maximum(1.0, np.abs(want))
        err = np.abs(got - want)
        if np.any(~(err <= tol)):
            problems.append(f"{name}.{key}: max deviation {np.max(err):.3e} "
                            f"from seed reference")
    return problems


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def profile_problems(name, z, intensity, chain, delta, cfg, geom):
    """Entry sample must be |1+r|^2 and exit sample |t|^2 (relative)."""
    res = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
    problems = []
    if not np.all(np.isfinite(intensity)):
        return [f"{name}: non-finite intensity"]
    for where, got, want in (("entry", intensity[0], abs(1 + res.r) ** 2),
                             ("exit", intensity[-1], abs(res.t) ** 2)):
        err = abs(got / want - 1.0)
        if not err <= PROFILE_RTOL:
            problems.append(f"{name}: {where} sample off by {err:.3e} (relative)")
    return problems


# ----------------------------------------------------- traced decompositions

def _cell_and_zeta(tr, chain, delta, cfg, geom):
    cell = tr.call("engine.unit_cell_matrix", bs.unit_cell_matrix,
                   chain, delta, cfg, geom)
    with tr.under(tr.last):
        tr.call("response.zeta", bs.zeta, chain.surface_density[:, None],
                np.asarray(delta)[None, ...] - chain.stark_shift[:, None], cfg)
    return cell


def decompose_spectrum(chain, grid, cfg, geom):
    """spectrum -> zeta, unit_cell_matrix, matrix_power, scatter."""
    def run(tr, table):
        cell = _cell_and_zeta(tr, chain, grid * cfg.gamma, cfg, geom)
        if chain.periods > 1:
            cell = tr.call("engine.matrix_power", bs.matrix_power, cell,
                           chain.periods)
        res = tr.call("engine.scatter", bs.scatter, cell)
        if not all(same_bits(a, b) for a, b in ((res.big_r, table.R),
                                                (res.big_t, table.T),
                                                (res.big_a, table.A))):
            return ["spectrum parts differ from the composite result"]
        return []
    return run


def decompose_bands(chain, grid, cfg, geom):
    """band_structure -> zeta, unit_cell_matrix, bloch_phase, density_of_states."""
    def run(tr, out):
        cells = _cell_and_zeta(tr, chain, grid * cfg.gamma, cfg, geom)
        theta = np.atleast_1d(tr.call("engine.bloch_phase", bs.bloch_phase, cells))
        theta = np.unwrap(theta.real) + 1j * theta.imag
        rho = tr.call("engine.density_of_states", bs.density_of_states, grid, theta)
        if not (same_bits(theta, out[0]) and same_bits(rho, out[1])):
            return ["band_structure parts differ from the composite result"]
        return []
    return run


def decompose_chain_matrix(chain, delta, cfg, geom):
    """chain_matrix of a flat chain -> zeta, unit_cell_matrix."""
    def run(tr, out):
        cell = _cell_and_zeta(tr, chain, delta, cfg, geom)
        return [] if same_bits(cell, out[0]) else \
            ["chain_matrix parts differ from the composite result"]
    return run


# ------------------------------------------------------------- the inputs

def build_inputs(workload, seed):
    """Everything a workload computes on, generated before timing starts."""
    run = parse_config(default_config_text())
    chain = run.build_chain()
    geom, cfg = run.geometry, run.response
    inp = {"run": run, "chain": chain, "cfg": cfg, "geom": geom,
           "grid": run.scan.detuning_grid()}
    rng = np.random.default_rng(seed)
    if workload == "wide-grid":
        inp["wide"] = np.linspace(-40.0, 15.0, WIDE_POINTS)
        inp["stark"] = bs.sequential_lattice(bs.ThermalModelConfig(
            run.model.n, run.model.n_s, run.model.n_ss, geom.T, geom.U0,
            True, run.model.potential), geom)
        inp["spots"] = np.unique(rng.choice(WIDE_POINTS, SPOT_CHECKS,
                                            replace=False))
        inp["sigma_r"] = geom.derived().sigma_r
        inp["chains"] = [chain, inp["stark"]]
    elif workload == "opaque-flat":
        inp["flat"] = chain.repeated()
        base = bs.two_component_lattice(run.model.n, run.model.f_dw,
                                        DISORDER_PERIODS, DISORDER_NSS,
                                        geom).repeated()
        inp["disordered"] = [
            bs.SlabChain(base.surface_density * rng.uniform(
                1.0 - DISORDER_JITTER, 1.0 + DISORDER_JITTER, base.n_slabs),
                base.stark_shift, base.gap_after)
            for _ in range(DISORDER_CHAINS)]
        inp["detunings"] = rng.uniform(-DISORDER_DETUNING, DISORDER_DETUNING,
                                       DISORDER_CHAINS) * cfg.gamma
        inp["probes"] = probe_inputs(run, geom)
        inp["chains"] = [inp["flat"], *inp["disordered"],
                         *(p["chain"] for p in inp["probes"].values())]
    else:
        inp["chains"] = [chain]
    return inp


# ------------------------------------------------------------- wide-grid

def spectra_views(name, stride):
    return lambda table: {name: table_view(table, stride)}


def wide_grid_ops(inp):
    run, chain, cfg, geom = inp["run"], inp["chain"], inp["cfg"], inp["geom"]
    wide, grid = inp["wide"], inp["grid"]
    nss, f_dw, n_s = run.model.n_ss, run.model.f_dw, run.model.n_s
    numbers = run.scan.atom_numbers()
    one_chain = chain_counts(chain, grid.size)

    def two_comp(n):
        return bs.two_component_lattice(n, f_dw, n_s, nss, geom)

    def spectrum_op(name, ch, g, stride, spots=None):
        def check(table, state):
            problems = passive(name, table.R, table.T, table.A)
            if spots is not None:
                flat = bs.spectrum(ch.repeated(), g[spots], cfg, geom)
                err = max(np.max(np.abs(flat.R - table.R[spots])),
                          np.max(np.abs(flat.T - table.T[spots])),
                          np.max(np.abs(flat.A - table.A[spots])))
                if not err <= FLAT_TOL:
                    problems.append(f"{name}: flat path differs by {err:.3e}")
            return problems
        return Op(name, lambda tr, st: tr.call("experiments.spectrum", bs.spectrum,
                                               ch, g, cfg, geom),
                  check, spectra_views(name, stride), chain_counts(ch, g.size),
                  decompose_spectrum(ch, g, cfg, geom))

    def bands_check(out, state):
        theta, rho = out
        if np.all(np.isfinite(theta)) and np.all(np.isfinite(rho)):
            return []
        return ["bands.default.200k: non-finite output"]

    def bands_views(out):
        theta, rho = out
        return {"bands.default.200k": {"re_theta": theta.real[::WIDE_STRIDE],
                                       "im_theta": theta.imag[::WIDE_STRIDE],
                                       "dos": rho[::WIDE_STRIDE]}}

    def saturation(tr, state):
        return tr.call("experiments.saturation_scan", bs.saturation_scan, numbers,
                       geom, cfg, n_s=n_s, f_dw=f_dw, n_ss=nss,
                       delta_over_gamma=grid)

    def saturation_check(out, state):
        max_r = out[1]
        return [] if np.all((max_r >= 0) & (max_r <= 1)) else \
            ["saturation_scan: max R outside [0, 1]"]

    def lattice(tr, state):
        state["lattice"] = tr.call("experiments.lattice_constant_scan",
                                   bs.lattice_constant_scan, MISMATCHES_M,
                                   run.build_chain, grid, cfg, geom)
        return state["lattice"]

    def lattice_check(tables, state):
        problems = []
        for i, t in enumerate(tables):
            problems += passive(f"lattice_constant_scan[{i}]", t.R, t.T, t.A)
        return problems

    def radial(tr, state):
        state["radial"] = tr.call("experiments.radial_average", bs.radial_average,
                                  run.model.n, inp["sigma_r"], RADIAL_RINGS,
                                  two_comp, grid, cfg, geom)
        return state["radial"]

    def minima(tr, state):
        tables = [*state["lattice"], state["radial"]]
        return [tr.call("experiments.reflection_minima", bs.reflection_minima,
                        t.delta_over_gamma, t.R) for t in tables]

    def powers(tr, state):
        res = tr.call("experiments.sweep_scatter", bs.sweep_scatter, chain,
                      grid * cfg.gamma, cfg, geom)
        return tr.call("experiments.detected_powers", bs.detected_powers, res,
                       run.scan.eta, run.scan.p_i)

    def powers_check(d, state):
        if np.all(np.abs((d.p_r + d.p_t + d.p_a) / d.p_i - 1.0) <= 1e-12):
            return []
        return ["detected_powers: P_r + P_t + P_a != P_i"]

    n_atoms = int(np.count_nonzero(numbers))
    return [
        spectrum_op("spectrum.default.200k", chain, wide, WIDE_STRIDE),
        Op("bands.default.200k",
           lambda tr, st: tr.call("experiments.band_structure", bs.band_structure,
                                  chain, wide, cfg, geom),
           bands_check, bands_views, chain_counts(chain, wide.size, power=False),
           decompose_bands(chain, wide, cfg, geom)),
        spectrum_op("spectrum.stark.200k", inp["stark"], wide, WIDE_STRIDE,
                    spots=inp["spots"]),
        spectrum_op("spectrum.default.1101", chain, grid, 1),
        Op("saturation_scan", saturation, saturation_check,
           lambda out: {"saturation_scan": {"max_R": out[1]}},
           add_counts(one_chain, times=n_atoms)),
        Op("lattice_constant_scan", lattice, lattice_check,
           lambda tables: {f"lattice_constant_scan[{i}]": table_view(t, SCAN_STRIDE)
                           for i, t in enumerate(tables)},
           add_counts(one_chain, times=MISMATCHES_M.size)),
        Op("radial_average", radial,
           lambda t, st: passive("radial_average", t.R, t.T, t.A),
           spectra_views("radial_average", SCAN_STRIDE),
           add_counts(one_chain, times=RADIAL_RINGS)),
        Op("reflection_minima", minima, lambda out, st: [],
           lambda out: {"reflection_minima": {str(i): idx
                                              for i, idx in enumerate(out)}}),
        Op("detected_powers", powers, powers_check,
           lambda d: {"detected_powers": {"R": d.p_r / (d.eta * d.p_i)}},
           one_chain),
    ]


# ------------------------------------------------------------ opaque-flat

def opaque_flat_ops(inp):
    run, chain, cfg, geom = inp["run"], inp["chain"], inp["cfg"], inp["geom"]
    flat, grid = inp["flat"], inp["grid"]
    periodic = bs.spectrum(chain, grid, cfg, geom)
    delta_p = run.scan.profile_delta * cfg.gamma
    spg = run.scan.samples_per_gap

    def flat_check(table, state):
        problems = passive("spectrum.flat.12600", table.R, table.T, table.A)
        err = max(np.max(np.abs(table.R - periodic.R)),
                  np.max(np.abs(table.T - periodic.T)),
                  np.max(np.abs(table.A - periodic.A)))
        if not err <= FLAT_TOL:
            problems.append(f"spectrum.flat.12600: differs from the periodic "
                            f"path by {err:.3e}")
        return problems

    ops = [Op("spectrum.flat.12600",
              lambda tr, st: tr.call("experiments.spectrum", bs.spectrum, flat,
                                     grid, cfg, geom),
              flat_check, spectra_views("spectrum.default.1101", 1),
              chain_counts(flat, grid.size),
              decompose_spectrum(flat, grid, cfg, geom))]

    for k, (dchain, delta) in enumerate(zip(inp["disordered"], inp["detunings"])):
        def solve(tr, state, dchain=dchain, delta=delta, k=k):
            m = tr.call("engine.chain_matrix", bs.chain_matrix, dchain, delta,
                        cfg, geom)
            state[k] = tr.call("engine.scatter", bs.scatter, m)
            return m, state[k]

        def solve_check(out, state, k=k):
            res = out[1]
            return passive(f"scatter.disordered.{k}", res.big_r, res.big_t,
                           res.big_a)

        def oracle(tr, state, dchain=dchain, delta=delta):
            return tr.call("experiments.solve_boundary_value",
                           bs.solve_boundary_value, dchain, delta, cfg, geom)

        def oracle_check(out, state, k=k):
            if k not in state:
                return [f"oracle.disordered.{k}: no transfer result to compare"]
            res = state[k]
            err = max(abs(res.r - out[0]), abs(res.t - out[1]))
            state.setdefault("oracle_err", []).append(err)
            if not err <= ORACLE_TOL:
                return [f"oracle.disordered.{k}: oracle gap {err:.3e}"]
            return []

        ops.append(Op(f"scatter.disordered.{k}", solve, solve_check, None,
                      chain_counts(dchain, 1),
                      decompose_chain_matrix(dchain, delta, cfg, geom)))
        ops.append(Op(f"oracle.disordered.{k}", oracle, oracle_check, None,
                      {"response.zeta_evals": dchain.total_slabs}))

    ops.append(Op("field_profile.default",
                  lambda tr, st: tr.call("engine.field_profile", bs.field_profile,
                                         chain, delta_p, spg, cfg, geom),
                  lambda out, st: profile_problems("field_profile.default", *out,
                                                   chain, delta_p, cfg, geom),
                  lambda out: {"field_profile.default":
                               {"intensity": out[1][::PROFILE_STRIDE]}},
                  chain_counts(flat, 1, flat_steps=flat.n_slabs)))
    return ops


def probe_inputs(run, geom):
    """Passive chains that the seed engine mishandles; kept at full size."""
    n, f_dw = run.model.n, run.model.f_dw
    g05 = geom.with_lattice_mismatch(0.5e-9)
    g08 = geom.with_lattice_mismatch(0.8e-9)
    return {
        "two_component_5000": {"kind": "spectrum", "geom": geom,
                               "chain": bs.two_component_lattice(n, f_dw, 5000,
                                                                 10, geom)},
        "perfect_2000": {"kind": "spectrum", "geom": g05, "oracle": True,
                         "chain": bs.perfect_lattice(3e18, 2000, g05)},
        "perfect_9000": {"kind": "spectrum", "geom": g08, "oracle": True,
                         "chain": bs.perfect_lattice(3e17, 9000, g08)},
        "profile_1500": {"kind": "profile", "geom": geom,
                         "chain": bs.two_component_lattice(n, f_dw, 1500, 10, geom)},
        "profile_3000": {"kind": "profile", "geom": geom,
                         "chain": bs.two_component_lattice(n, f_dw, 3000, 10, geom)},
    }


def run_probe(name, probe, inp, clock):
    """Time one probe; returns (seconds, problems).  Raising is a failure."""
    cfg, grid, geom = inp["cfg"], inp["grid"], probe["geom"]
    chain = probe["chain"]
    t0 = clock()
    try:
        if probe["kind"] == "spectrum":
            out = bs.spectrum(chain, grid, cfg, geom)
        else:
            out = bs.field_profile(chain, 0.0, inp["run"].scan.samples_per_gap,
                                   cfg, geom)
    except Exception as exc:  # a probe that raises is recorded, not fatal
        return clock() - t0, [f"probe {name}: {type(exc).__name__}: "
                              f"{str(exc)[:160]}"]
    elapsed = clock() - t0
    if probe["kind"] == "profile":
        return elapsed, profile_problems(f"probe {name}", *out, chain, 0.0,
                                         cfg, geom)
    problems = passive(f"probe {name}", out.R, out.T, out.A)
    if probe.get("oracle") and not problems:
        for i in np.linspace(0, grid.size - 1, 3).astype(int):
            r, t = bs.solve_boundary_value(chain, grid[i] * cfg.gamma, cfg, geom)
            err = max(abs(abs(r) ** 2 - out.R[i]), abs(abs(t) ** 2 - out.T[i]))
            if not err <= ORACLE_TOL:
                problems.append(f"probe {name}: oracle gap {err:.3e} at {i}")
    return elapsed, problems


def ops_for(workload, inp):
    return wide_grid_ops(inp) if workload == "wide-grid" else opaque_flat_ops(inp)
