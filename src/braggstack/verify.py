"""Self-verification suite: oracle cross-checks and engine invariants.

Run via `braggstack verify`; every check prints one pass/fail line and the
command exits nonzero if anything fails.  Seeds are fixed so the randomized
chains are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SlabChain, chain_matrix, gap_matrix, identity_matrix, \
    layer_matrix, matmul2, scatter
from .experiments import solve_boundary_value
from .geometry import bragg_matched_geometry
from .response import default_config, single_line_config, zeta

DEFAULT_SEED = 20240801


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_chain(rng, max_slabs=20):
    n = int(rng.integers(1, max_slabs + 1))
    return SlabChain(
        rng.uniform(0.0, 3e11, n),
        rng.uniform(-5.0, 5.0, n) * default_config().gamma,
        rng.uniform(0.0, 1.5e-6, n),
    )


def check_oracle_agreement(n_chains=500, tol=1e-10, seed=DEFAULT_SEED):
    """Chain amplitudes vs boundary-value solver on randomized chains.

    Each detuning is taken as a scalar (closed-form slabs, star-folded
    pairwise) and as a one-point grid (slab scan, one run on these short
    chains); the worst of both is reported.
    """
    rng = np.random.default_rng(seed)
    geom = bragg_matched_geometry()
    cfg = default_config()
    worst = 0.0
    for _ in range(n_chains):
        chain = _random_chain(rng)
        delta = float(rng.uniform(-12.0, 12.0)) * cfg.gamma
        r_o, t_o = solve_boundary_value(chain, delta, cfg, geom)
        for d in (delta, np.array([delta])):
            res = scatter(chain_matrix(chain, d, cfg, geom))
            worst = max(worst, float(np.max(np.abs(res.r - r_o))),
                        float(np.max(np.abs(res.t - t_o))))
    return CheckResult("oracle-agreement", worst <= tol,
                       f"worst |amp| error {worst:.3e} over {n_chains} chains "
                       f"(tol {tol:.0e})")


def check_single_slab_closed_form(tol=1e-12):
    """scatter(layer) equals r = i*zeta/(1 - i*zeta), t = 1/(1 - i*zeta)."""
    geom = bragg_matched_geometry()
    cfg = default_config()
    worst = 0.0
    for delta_g in (-31.0, -3.0, 0.0, 0.5, 4.0):
        z = zeta(1.215e11, delta_g * cfg.gamma, cfg)
        res = scatter(layer_matrix(z))
        worst = max(worst,
                    abs(res.r - 1j * z / (1.0 - 1j * z)),
                    abs(res.t - 1.0 / (1.0 - 1j * z)))
    return CheckResult("single-slab-closed-form", worst <= tol,
                       f"worst error {worst:.3e} (tol {tol:.0e})")


def check_long_chain(n_slabs=10_000, tol=1e-10, seed=DEFAULT_SEED):
    """A random 10^4-slab chain at one detuning, computed three ways.

    The scalar detuning star-folds the closed-form slabs pairwise (a tree)
    and the one-point grid the slab scan's runs of slabs, in the same
    pairwise fold; both must match the boundary-value oracle, and the
    mirrored chain must give the same T.
    """
    rng = np.random.default_rng(seed + 1)
    geom = bragg_matched_geometry()
    cfg = default_config()
    chain = SlabChain(rng.uniform(0.0, 2e9, n_slabs),
                      rng.uniform(-2.0, 2.0, n_slabs) * cfg.gamma,
                      rng.uniform(0.0, 1.0e-6, n_slabs))
    delta = 0.7 * cfg.gamma
    tree = scatter(chain_matrix(chain, delta, cfg, geom))
    scan = scatter(chain_matrix(chain, np.array([delta]), cfg, geom))
    r_o, t_o = solve_boundary_value(chain, delta, cfg, geom)
    t_mirror = scatter(chain_matrix(chain.mirrored(), delta, cfg, geom)).big_t
    d_scan = max(abs(tree.r - scan.r[0]), abs(tree.t - scan.t[0]))
    d_oracle = max(abs(tree.r - r_o), abs(tree.t - t_o),
                   abs(scan.r[0] - r_o), abs(scan.t[0] - t_o))
    d_mirror = abs(t_mirror - tree.big_t)
    return CheckResult("long-chain-10k", max(d_scan, d_oracle, d_mirror) <= tol,
                       f"|tree - scan| = {d_scan:.3e}, |amp - oracle| = "
                       f"{d_oracle:.3e}, |T - T_mirror| = {d_mirror:.3e} on "
                       f"{n_slabs} slabs (tol {tol:.0e})")


def check_lossless_sum(tol=1e-12, seed=DEFAULT_SEED):
    """R + T = 1 for chains with artificially real zeta."""
    rng = np.random.default_rng(seed + 2)
    geom = bragg_matched_geometry()
    m = identity_matrix()
    for zr, g in zip(rng.uniform(-0.05, 0.05, 300), rng.uniform(0, 1e-6, 300)):
        m = matmul2(m, layer_matrix(float(zr)))
        m = matmul2(m, gap_matrix(float(g), geom.k_brg, geom.beta_i))
    res = scatter(m)
    err = abs(res.big_r + res.big_t - 1.0)
    return CheckResult("lossless-sum", err <= tol,
                       f"|R + T - 1| = {err:.3e} for real-zeta chain (tol {tol:.0e})")


def check_reciprocity(tol=1e-10, seed=DEFAULT_SEED):
    """Mirroring the chain leaves T unchanged."""
    rng = np.random.default_rng(seed + 3)
    geom = bragg_matched_geometry()
    cfg = default_config()
    worst = 0.0
    for _ in range(50):
        chain = _random_chain(rng)
        delta = float(rng.uniform(-8.0, 8.0)) * cfg.gamma
        a = scatter(chain_matrix(chain, delta, cfg, geom))
        b = scatter(chain_matrix(chain.mirrored(), delta, cfg, geom))
        worst = max(worst, abs(a.big_t - b.big_t))
    return CheckResult("reciprocity", worst <= tol,
                       f"worst |T - T_mirror| = {worst:.3e} (tol {tol:.0e})")


def check_passivity(seed=DEFAULT_SEED):
    """Physical chains never amplify: R <= 1, T <= 1, A >= -1e-9."""
    rng = np.random.default_rng(seed + 4)
    geom = bragg_matched_geometry()
    cfg = default_config()
    ok = True
    worst_a = 0.0
    for _ in range(100):
        chain = _random_chain(rng)
        delta = rng.uniform(-10.0, 10.0, 7) * cfg.gamma
        res = scatter(chain_matrix(chain, delta, cfg, geom))
        ok &= bool(np.all(res.big_r <= 1.0 + 1e-12)
                   and np.all(res.big_t <= 1.0 + 1e-12))
        worst_a = min(worst_a, float(np.min(res.big_a)))
    ok &= worst_a >= -1e-9
    return CheckResult("passivity", ok, f"min A = {worst_a:.3e} (floor -1e-9)")


def check_thin_grating(tol=0.01):
    """R(2N)/R(N) = 4 for weak lattices at the exact Bragg phase."""
    geom = bragg_matched_geometry()
    cfg = single_line_config()
    sd = 1e-4 / (1.5 * geom.lambda_brg**2 / (2.0 * math.pi))  # |zeta| = 1e-4
    half = geom.lambda_dip / 2.0
    worst = 0.0
    for n in (10, 20, 50):
        r1 = scatter(chain_matrix(SlabChain([sd], [0.0], [half], periods=n),
                                  0.0, cfg, geom)).big_r
        r2 = scatter(chain_matrix(SlabChain([sd], [0.0], [half], periods=2 * n),
                                  0.0, cfg, geom)).big_r
        worst = max(worst, abs(r2 / r1 - 4.0) / 4.0)
    return CheckResult("thin-grating-quadratic", worst <= tol,
                       f"worst |ratio/4 - 1| = {worst:.3e} (tol {tol:.0e})")


def check_power_path(tol=1e-10):
    """Star powers of the cell agree with the flat chain's scan in runs."""
    geom = bragg_matched_geometry()
    cfg = default_config()
    chain = SlabChain([1.215e11], [0.0], [geom.lambda_dip / 2.0], periods=613)
    delta = np.array([-2.0, 0.0, 1.0]) * cfg.gamma
    fast = chain_matrix(chain, delta, cfg, geom)
    slow = chain_matrix(chain.repeated(), delta, cfg, geom)
    err = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    return CheckResult("periodic-fast-path", err <= tol,
                       f"relative deviation {err:.3e} (tol {tol:.0e})")


ALL_CHECKS = (
    check_single_slab_closed_form,
    check_long_chain,
    check_lossless_sum,
    check_reciprocity,
    check_passivity,
    check_thin_grating,
    check_power_path,
    check_oracle_agreement,
)


def run_verification(n_chains: int = 500) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        if check is check_oracle_agreement:
            results.append(check(n_chains=n_chains))
        else:
            results.append(check())
    return results
