"""Self-verification suite behind `braggstack verify`: oracle cross-checks
and engine invariants, one row of CHECKS each.

A row is (name, tolerance, check).  A check takes the geometry, the response
config and the oracle's chain count (only the oracle row uses it) and
returns (deviation, detail); the row passes when the deviation is at most
its tolerance.  Seeds are fixed so the randomized chains are reproducible.
"""

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


def _random_chain(rng, cfg):
    n = int(rng.integers(1, 21))
    return SlabChain(
        rng.uniform(0.0, 3e11, n),
        rng.uniform(-5.0, 5.0, n) * cfg.gamma,
        rng.uniform(0.0, 1.5e-6, n),
    )


def check_oracle_agreement(geom, cfg, n_chains):
    """Chain amplitudes vs boundary-value solver on randomized chains.

    Each detuning is taken as a scalar (closed-form slabs, star-folded
    pairwise) and as a one-point grid (slab scan, one run on these short
    chains); the worst of both is reported.
    """
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for _ in range(n_chains):
        chain = _random_chain(rng, cfg)
        delta = float(rng.uniform(-12.0, 12.0)) * cfg.gamma
        r_o, t_o = solve_boundary_value(chain, delta, cfg, geom)
        for d in (delta, np.array([delta])):
            res = scatter(chain_matrix(chain, d, cfg, geom))
            worst = max(worst, float(np.max(np.abs(res.r - r_o))),
                        float(np.max(np.abs(res.t - t_o))))
    return worst, f"worst |amp| error {worst:.3e} over {n_chains} chains"


def check_single_slab_closed_form(geom, cfg, n_chains):
    """scatter(layer) equals r = i*zeta/(1 - i*zeta), t = 1/(1 - i*zeta)."""
    worst = 0.0
    for delta_g in (-31.0, -3.0, 0.0, 0.5, 4.0):
        z = zeta(1.215e11, delta_g * cfg.gamma, cfg)
        res = scatter(layer_matrix(z))
        worst = max(worst,
                    abs(res.r - 1j * z / (1.0 - 1j * z)),
                    abs(res.t - 1.0 / (1.0 - 1j * z)))
    return worst, f"worst error {worst:.3e}"


def check_long_chain(geom, cfg, n_chains):
    """A random 10^4-slab chain at one detuning, computed three ways.

    The scalar detuning star-folds the closed-form slabs pairwise (a tree)
    and the one-point grid the slab scan's runs of slabs, in the same
    pairwise fold; both must match the boundary-value oracle, and the
    mirrored chain must give the same T.
    """
    rng = np.random.default_rng(DEFAULT_SEED + 1)
    chain = SlabChain(rng.uniform(0.0, 2e9, 10_000),
                      rng.uniform(-2.0, 2.0, 10_000) * cfg.gamma,
                      rng.uniform(0.0, 1.0e-6, 10_000))
    delta = 0.7 * cfg.gamma
    tree = scatter(chain_matrix(chain, delta, cfg, geom))
    scan = scatter(chain_matrix(chain, np.array([delta]), cfg, geom))
    r_o, t_o = solve_boundary_value(chain, delta, cfg, geom)
    t_mirror = scatter(chain_matrix(chain.mirrored(), delta, cfg, geom)).big_t
    d_scan = max(abs(tree.r - scan.r[0]), abs(tree.t - scan.t[0]))
    d_oracle = max(abs(tree.r - r_o), abs(tree.t - t_o),
                   abs(scan.r[0] - r_o), abs(scan.t[0] - t_o))
    d_mirror = abs(t_mirror - tree.big_t)
    return max(d_scan, d_oracle, d_mirror), \
        f"|tree - scan| = {d_scan:.3e}, |amp - oracle| = {d_oracle:.3e}, " \
        f"|T - T_mirror| = {d_mirror:.3e} on {chain.n_slabs} slabs"


def check_lossless_sum(geom, cfg, n_chains):
    """R + T = 1 for chains with artificially real zeta."""
    rng = np.random.default_rng(DEFAULT_SEED + 2)
    m = identity_matrix()
    for zr, g in zip(rng.uniform(-0.05, 0.05, 300), rng.uniform(0, 1e-6, 300)):
        m = matmul2(m, layer_matrix(float(zr)))
        m = matmul2(m, gap_matrix(float(g), geom.k_brg, geom.beta_i))
    res = scatter(m)
    err = abs(res.big_r + res.big_t - 1.0)
    return err, f"|R + T - 1| = {err:.3e} for real-zeta chain"


def check_reciprocity(geom, cfg, n_chains):
    """Mirroring the chain leaves T unchanged."""
    rng = np.random.default_rng(DEFAULT_SEED + 3)
    worst = 0.0
    for _ in range(50):
        chain = _random_chain(rng, cfg)
        delta = float(rng.uniform(-8.0, 8.0)) * cfg.gamma
        a = scatter(chain_matrix(chain, delta, cfg, geom))
        b = scatter(chain_matrix(chain.mirrored(), delta, cfg, geom))
        worst = max(worst, abs(a.big_t - b.big_t))
    return worst, f"worst |T - T_mirror| = {worst:.3e}"


def check_passivity(geom, cfg, n_chains):
    """Physical chains never amplify: R <= 1 + 1e-12, T <= 1 + 1e-12 and
    the gain -A at most the row's tolerance; a NaN fails."""
    rng = np.random.default_rng(DEFAULT_SEED + 4)
    results = [scatter(chain_matrix(_random_chain(rng, cfg),
                                    rng.uniform(-10.0, 10.0, 7) * cfg.gamma,
                                    cfg, geom))
               for _ in range(100)]
    max_r = float(np.max([res.big_r for res in results]))
    max_t = float(np.max([res.big_t for res in results]))
    min_a = float(np.min([res.big_a for res in results]))
    bounded = max_r <= 1.0 + 1e-12 and max_t <= 1.0 + 1e-12
    return -min_a if bounded else math.inf, \
        f"max R = {max_r:.3e}, max T = {max_t:.3e} (each <= 1 + 1e-12), " \
        f"gain -min A = {-min_a:.3e}"


def check_thin_grating(geom, cfg, n_chains):
    """R(2N)/R(N) = 4 for weak lattices at the exact Bragg phase."""
    line = single_line_config()
    sd = 1e-4 / (1.5 * geom.lambda_brg**2 / (2.0 * math.pi))  # |zeta| = 1e-4
    half = geom.lambda_dip / 2.0
    worst = 0.0
    for n in (10, 20, 50):
        r1, r2 = (scatter(chain_matrix(SlabChain([sd], [0.0], [half], periods=p),
                                       0.0, line, geom)).big_r for p in (n, 2 * n))
        worst = max(worst, abs(r2 / r1 - 4.0) / 4.0)
    return worst, f"worst |ratio/4 - 1| = {worst:.3e}"


def check_power_path(geom, cfg, n_chains):
    """Star powers of the cell agree with the flat chain's scan in runs."""
    chain = SlabChain([1.215e11], [0.0], [geom.lambda_dip / 2.0], periods=613)
    delta = np.array([-2.0, 0.0, 1.0]) * cfg.gamma
    fast = chain_matrix(chain, delta, cfg, geom)
    slow = chain_matrix(chain.repeated(), delta, cfg, geom)
    err = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    return err, f"relative deviation {err:.3e}"


CHECKS = (
    ("single-slab-closed-form", 1e-12, check_single_slab_closed_form),
    ("long-chain-10k", 1e-10, check_long_chain),
    ("lossless-sum", 1e-12, check_lossless_sum),
    ("reciprocity", 1e-10, check_reciprocity),
    ("passivity", 1e-9, check_passivity),
    ("thin-grating-quadratic", 1e-2, check_thin_grating),
    ("periodic-fast-path", 1e-10, check_power_path),
    ("oracle-agreement", 1e-10, check_oracle_agreement),
)


def run_verification(n_chains: int = 500) -> list[CheckResult]:
    geom, cfg = bragg_matched_geometry(), default_config()
    results = []
    for name, tol, check in CHECKS:
        deviation, detail = check(geom, cfg, n_chains)
        results.append(CheckResult(name, deviation <= tol,
                                   f"{detail} (tol {tol:.0e})"))
    return results
