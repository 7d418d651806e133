"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here, not tuned elsewhere.
"""

import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

import braggstack as bs
from braggstack.cli import main as cli_main
from braggstack.verify import check_oracle_agreement


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_01_geometry_closed_forms():
    angle = math.degrees(bs.bragg_angle(780e-9, 810e-9))
    u0 = k_B * 500e-6 / hbar
    temp = bs.temperature_for_depth_fraction(0.4, u0)
    two_sz = 2 * bs.axial_width(temp, u0, 810e-9)
    two_sr = 2 * bs.radial_width(temp, u0, 220e-6)
    n_s = bs.effective_layers(70e-6, 810e-9, math.radians(15.64))
    ok = (abs(angle - 15.6) <= 0.1
          and abs(two_sz - 115e-9) <= 0.02 * 115e-9
          and abs(two_sr - 140e-6) <= 0.02 * 140e-6
          and abs(n_s - 600) <= 0.05 * 600)
    assert report("1 geometry closed forms", ok,
                  f"angle={angle:.3f} deg, 2sz={two_sz * 1e9:.1f} nm, "
                  f"2sr={two_sr * 1e6:.1f} um, N_s={n_s:.1f}")


def test_02_penetration_depth_layers():
    sigma0 = bs.resonant_cross_section(780e-9)
    n_pd = bs.penetration_layers(3e17, 0.2, sigma0, 780e-9)
    ok = abs(n_pd - 37) <= 1.0
    assert report("2 penetration layers", ok, f"N_s,pd = {n_pd:.2f} (37 +- 1)")


def test_03_engine_exactness(cfg, geom):
    # single slab closed form to 1e-12
    worst_cf = 0.0
    for delta_g in (-31.0, -2.0, 0.0, 0.7, 5.0):
        z = bs.zeta(1.215e11, delta_g * cfg.gamma, cfg)
        res = bs.scatter(bs.layer_matrix(z))
        worst_cf = max(worst_cf,
                       abs(res.r - 1j * z / (1 - 1j * z)),
                       abs(res.t - 1 / (1 - 1j * z)))
    # on a 10^4-slab chain: det = 1 to 1e-9, and the star tree (scalar
    # detuning), the slab scan in runs of slabs (one-point grid), the
    # boundary-value oracle and the mirrored chain's T agree to 1e-10
    rng = np.random.default_rng(17)
    n = 10_000
    chain = bs.SlabChain(rng.uniform(0, 2e9, n),
                         rng.uniform(-2, 2, n) * cfg.gamma,
                         rng.uniform(0, 1e-6, n))
    delta = 0.7 * cfg.gamma
    m = bs.chain_matrix(chain, delta, cfg, geom)
    det_err = abs(bs.det2(m) - 1)
    tree = bs.scatter(m)
    scan = bs.scatter(bs.chain_matrix(chain, np.array([delta]), cfg, geom))
    r_o, t_o = bs.solve_boundary_value(chain, delta, cfg, geom)
    t_mirror = bs.scatter(bs.chain_matrix(chain.mirrored(), delta, cfg, geom)).big_t
    long_err = max(abs(tree.r - scan.r[0]), abs(tree.t - scan.t[0]),
                   abs(tree.r - r_o), abs(tree.t - t_o),
                   abs(scan.r[0] - r_o), abs(scan.t[0] - t_o),
                   abs(t_mirror - tree.big_t))
    # R + T = 1 to 1e-12 for a real-strength chain
    m = bs.identity_matrix()
    for zr, g in zip(rng.uniform(-0.05, 0.05, 400), rng.uniform(0, 1e-6, 400)):
        m = bs.matmul2(m, bs.layer_matrix(float(zr)))
        m = bs.matmul2(m, bs.gap_matrix(float(g), geom.k_brg, geom.beta_i))
    res = bs.scatter(m)
    loss_err = abs(res.big_r + res.big_t - 1.0)
    ok = (worst_cf <= 1e-12 and det_err <= 1e-9 and long_err <= 1e-10
          and loss_err <= 1e-12)
    assert report("3 engine exactness", ok,
                  f"closed-form {worst_cf:.2e} (1e-12), det {det_err:.2e} (1e-9), "
                  f"tree/scan/oracle/mirror {long_err:.2e} (1e-10), "
                  f"R+T-1 {loss_err:.2e} (1e-12)")


def test_04_oracle_equivalence():
    res = check_oracle_agreement(n_chains=500, tol=1e-10)
    assert report("4 oracle equivalence", res.passed, res.detail)


def test_05_thin_grating_quadratic(cfg1, geom):
    sd = 1e-4 / (1.5 * geom.lambda_brg ** 2 / (2 * math.pi))  # |zeta| = 1e-4
    half = geom.lambda_dip / 2
    worst = 0.0
    for n in (10, 20, 50):
        r_n = bs.scatter(bs.chain_matrix(
            bs.SlabChain([sd], [0.0], [half], periods=n), 0.0, cfg1, geom)).big_r
        r_2n = bs.scatter(bs.chain_matrix(
            bs.SlabChain([sd], [0.0], [half], periods=2 * n), 0.0, cfg1, geom)).big_r
        worst = max(worst, abs(r_2n / r_n - 4.0) / 4.0)
    ok = worst <= 0.01
    assert report("5 thin-grating law", ok,
                  f"worst |R(2N)/R(N)/4 - 1| = {worst:.2%} (1%)")


def test_06_t0_stark_limit(cfg1, geom):
    grid = bs.detuning_grid()
    mc = bs.ThermalModelConfig(n=1e16, n_s=100, n_ss=21, T=0.0, U0=geom.U0,
                               stark_enabled=True)
    seq = bs.spectrum(bs.sequential_lattice(mc, geom), grid, cfg1, geom)
    per = bs.spectrum(bs.perfect_lattice(1e16, 100, geom), grid, cfg1, geom)
    step = grid[1] - grid[0]
    shift_steps = (geom.U0 / cfg1.gamma) / step
    miss = abs(int(np.argmax(seq.R)) - int(np.argmax(per.R)) - shift_steps)
    ok = miss <= 1.0
    assert report("6 frozen-lattice Stark shift", ok,
                  f"peak moved {np.argmax(seq.R) - np.argmax(per.R)} steps, "
                  f"expected {shift_steps:.2f} (within 1)")


def test_07a_dip_emergence(cfg, geom):
    grid = bs.detuning_grid()
    i0 = int(np.argmin(np.abs(grid)))
    i_m = int(np.argmin(np.abs(grid + 3)))
    i_p = int(np.argmin(np.abs(grid - 3)))
    high = bs.spectrum(bs.two_component_lattice(3e17, 0.2, 600, 10, geom),
                       grid, cfg, geom)
    low = bs.spectrum(bs.two_component_lattice(3e15, 0.2, 600, 10, geom),
                      grid, cfg, geom)
    dip_high = high.R[i0] < high.R[i_m] and high.R[i0] < high.R[i_p]
    peak_low = low.R[i0] > low.R[i_m] and low.R[i0] > low.R[i_p]
    ok = dip_high and peak_low
    assert report("7a resonance dip", ok,
                  f"n=3e11: R(0)={high.R[i0]:.4f} vs R(+-3G)="
                  f"{high.R[i_m]:.4f}/{high.R[i_p]:.4f}; "
                  f"n=3e9: R(0)={low.R[i0]:.2e} peaked={peak_low}")


def test_07b_saturation_curve(cfg, geom):
    numbers = np.logspace(5, math.log10(4e7), 13)
    _, max_r = bs.saturation_scan(numbers, geom, cfg, n_s=400, f_dw=0.2, n_ss=10)
    monotone = bool(np.all(np.diff(max_r) > 0))
    slopes = np.diff(max_r) / np.diff(numbers)
    concave_tail = bool(np.all(np.diff(slopes[-6:]) < 0))
    first_gain = max_r[4] / max_r[0]
    last_gain = max_r[-1] / max_r[-5]
    saturating = last_gain < 0.25 * first_gain
    ok = monotone and concave_tail and saturating
    assert report("7b saturation curve", ok,
                  f"monotone={monotone}, concave tail={concave_tail}, "
                  f"decade gain {first_gain:.1f} -> {last_gain:.2f}")


def test_07c_absorption_splitting_as_stated(cfg, geom):
    """Absorption of the ordered lattice (f_dw = 1, N_s = 600) splits where a
    stop band opens, and only there.

    Each period is one point layer; the n_ss empty sublayers act as
    identities, so the cell trace is Tr M = 2 cos(phi) - 2 zeta sin(phi) with
    phi the gap phase.  At the matched angle phi = pi and Tr M / 2 = -1 for
    every complex zeta: the cell sits on the band edge at every detuning, no
    stop band opens and A stays single-peaked (for point scatterers the gap
    opens only off the Bragg condition; Deutsch et al., PRA 52, 1394 (1995)).
    A lattice constant detuned by dlambda shifts phi by
    eps = pi * dlambda / lambda_dip.  At +-2 nm, eps ~ 7.8e-3 is comparable to
    the peak |Re zeta| ~ 5.5e-3 of the ordered layer, and a stop band opens
    on one side of resonance, where |Re zeta| > eps / 2; A then has a minimum
    inside it, below two flanking maxima.  Margin: at N_s = 600 there is no
    split for |dlambda| <= 1 nm, and at 1.5 nm only the -1.5 nm sign splits,
    because the hyperfine lines make the response asymmetric.
    """
    grid = bs.detuning_grid(-8, 8, 641)

    def run(g):
        chain = bs.two_component_lattice(3e17, 1.0, 600, 10, g)
        cell = bs.unit_cell_matrix(chain, grid * cfg.gamma, cfg, g)
        half_trace = np.trace(cell, axis1=-2, axis2=-1) / 2
        a = bs.spectrum(chain, grid, cfg, g).A
        maxima = bs.reflection_minima(grid, -a, prominence=1e-3, window=(-6, 6))
        return half_trace, a, maxima

    half_trace, _, maxima = run(geom)
    edge_dev = float(np.abs(half_trace + 1).max())
    ok = edge_dev <= 1e-12 and len(maxima) == 1
    details = [f"matched: max|Tr/2+1|={edge_dev:.1e}, "
               f"A maxima at {np.round(grid[maxima], 2).tolist()}"]
    bands = []
    for dl in (-2e-9, 2e-9):
        half_trace, a, maxima = run(geom.with_lattice_mismatch(dl))
        band = grid[half_trace.real < -1]
        detail = (f"{dl * 1e9:+.0f} nm: {band.size} stop-band points, "
                  f"A maxima at {np.round(grid[maxima], 2).tolist()}")
        split = band.size > 0 and len(maxima) >= 2
        if split:
            bands.append((band.min(), band.max()))
            i_min = maxima[0] + int(np.argmin(a[maxima[0]:maxima[-1] + 1]))
            split = (a[i_min] < a[maxima[0]] and a[i_min] < a[maxima[-1]]
                     and band.min() <= grid[i_min] <= band.max())
            detail += (f", stop band {band.min():.2f}..{band.max():.2f}, "
                       f"A min {a[i_min]:.3f} at {grid[i_min]:.2f}")
        ok = ok and split
        details.append(detail)
    # one-sided stop bands: below resonance at -2 nm, above it at +2 nm
    ok = ok and bands[0][1] < 0 < bands[1][0]
    assert report("7c absorption splitting (N_s=600, f_dw=1: band edge at "
                  "the matched angle, split inside the stop band at -2/+2 nm)",
                  ok, "; ".join(details)), \
        ("absorption split does not follow the stop band; see README.md, "
         "'Tests and acceptance suite'")


def test_07c_disorder_fills_absorption(cfg, geom):
    grid = bs.detuning_grid(-8, 8, 641)
    i0 = int(np.argmin(np.abs(grid)))
    ordered = bs.spectrum(bs.two_component_lattice(3e17, 1.0, 600, 10, geom),
                          grid, cfg, geom)
    disordered = bs.spectrum(bs.two_component_lattice(3e17, 0.2, 600, 10, geom),
                             grid, cfg, geom)
    ok = disordered.A[i0] > 2.0 * ordered.A[i0]
    assert report("7c disorder fills central absorption", ok,
                  f"A(0): f_dw=1 {ordered.A[i0]:.3f} vs f_dw=0.2 "
                  f"{disordered.A[i0]:.3f}")


def test_07d_double_dip(geom):
    cfg = bs.default_config()
    gamma = cfg.gamma
    u0 = 0.6 * gamma
    temp = 90e-6
    g = bs.bragg_matched_geometry(U0=u0, T=temp).with_lattice_mismatch(0.08e-9)
    mc = bs.ThermalModelConfig(n=3e17, n_s=520, n_ss=20, T=temp, U0=u0,
                               stark_enabled=True, potential_form="sinusoidal")
    table = bs.spectrum(bs.sequential_lattice(mc, g), bs.detuning_grid(), cfg, g)
    idx = bs.reflection_minima(table.delta_over_gamma, table.R,
                               prominence=1e-3, window=(-6, 6))
    ok = len(idx) >= 2
    assert report("7d double dip", ok,
                  f"{len(idx)} local minima at "
                  f"{np.round(table.delta_over_gamma[idx], 2).tolist()} (need >= 2)")


def test_07e_stark_asymmetry(cfg1, geom):
    grid = bs.detuning_grid(-15, 15, 601)
    diffs = {}
    for stark in (False, True):
        peaks = []
        for dl in (+0.4e-9, -0.4e-9):
            g = geom.with_lattice_mismatch(dl)
            mc = bs.ThermalModelConfig(n=3e17, n_s=200, n_ss=20, T=g.T, U0=g.U0,
                                       stark_enabled=stark)
            peaks.append(float(bs.spectrum(bs.sequential_lattice(mc, g),
                                           grid, cfg1, g).R.max()))
        diffs[stark] = abs(peaks[0] - peaks[1]) / max(peaks)
    ok = diffs[False] < 1e-2 and diffs[True] > 30 * diffs[False]
    assert report("7e Stark asymmetry", ok,
                  f"peak-R mismatch: Stark off {diffs[False]:.2e}, "
                  f"on {diffs[True]:.2e}")


def test_08_field_profile(cfg, geom):
    half = geom.lambda_dip / 2
    # nodes over the interior slabs of a matched perfect lattice
    chain = bs.perfect_lattice(3e17, 60, geom)
    z, intensity = bs.field_profile(chain, 0.0, 64, cfg, geom)
    worst = 0.0
    for j in range(1, 59):
        zj = j * half
        window = (z > zj - half / 2) & (z < zj + half / 2)
        z_min = z[window][np.argmin(intensity[window])]
        worst = max(worst, abs(z_min - zj))
    nodes_ok = worst <= geom.lambda_brg / 50
    # Lambert-Beer envelope for a nearly fully disordered cloud
    f_dw = 0.03
    chain = bs.two_component_lattice(3e17, f_dw, 150, 10, geom)
    z, intensity = bs.field_profile(chain, 0.0, 32, cfg, geom)
    z_pd = bs.penetration_depth(3e17, f_dw, bs.cross_section(0.0, cfg))
    centers, means = [], []
    for p in range(150):
        window = (z >= p * half) & (z < (p + 1) * half)
        centers.append((p + 0.5) * half)
        means.append(intensity[window].mean())
    lo, hi = int(0.5 * z_pd / half), int(2.5 * z_pd / half)
    slope = np.polyfit(centers[lo:hi], np.log(means[lo:hi]), 1)[0]
    fit_err = abs(-1.0 / slope - z_pd) / z_pd
    beer_ok = fit_err <= 0.05
    ok = nodes_ok and beer_ok
    assert report("8 field profile", ok,
                  f"worst node offset {worst * 1e9:.2f} nm "
                  f"(limit {geom.lambda_brg / 50 * 1e9:.1f} nm); "
                  f"Beer fit off by {fit_err:.2%} (5%)")


def test_09_band_structure(geom):
    kz = geom.k_brg * math.cos(geom.beta_i)
    # free cells: theta = k dz cos(beta) exactly
    worst = 0.0
    for phi in np.linspace(0.05, math.pi - 0.05, 60):
        cell = bs.matmul2(bs.layer_matrix(0.0),
                          bs.gap_matrix(phi / kz, geom.k_brg, geom.beta_i))
        theta = bs.bloch_phase(cell)
        worst = max(worst, abs(theta - phi))
    free_ok = worst <= 1e-9
    # real-strength pi-cell: stop band over a finite lattice-detuning window
    eps = np.linspace(-0.08, 0.04, 601)
    cells = np.stack([
        bs.matmul2(bs.layer_matrix(0.02),
                   bs.gap_matrix((math.pi + e) / kz, geom.k_brg, geom.beta_i))
        for e in eps])
    theta = bs.bloch_phase(cells)
    rho = bs.density_of_states(eps, theta)
    ingap = theta.imag > 1e-9
    window_ok = (ingap.any() and (~ingap).any()
                 and bool(np.all(rho[ingap] == 0.0))
                 and rho[~ingap].max() > 0.0)
    ok = free_ok and window_ok
    assert report("9 band structure", ok,
                  f"free dispersion err {worst:.2e} (1e-9); gap spans "
                  f"{ingap.sum()} of {eps.size} points with rho = 0 inside")


def test_10_peak_reflectivity_exists(cfg, geom):
    best = 0.0
    best_cfg = ""
    grid = bs.detuning_grid()
    for n in (1e17, 3e17):
        for n_s in (400, 600):
            for dl in (0.0, 0.4e-9):
                g = geom.with_lattice_mismatch(dl)
                table = bs.spectrum(bs.two_component_lattice(n, 0.2, n_s, 10, g),
                                    grid, cfg, g)
                if table.R.max() > best:
                    best = float(table.R.max())
                    best_cfg = f"two_component n={n:g} N_s={n_s} dl={dl * 1e9:g}nm"
            for stark in (False, True):
                mc = bs.ThermalModelConfig(n=n, n_s=n_s, n_ss=20, T=geom.T,
                                           U0=geom.U0, stark_enabled=stark)
                table = bs.spectrum(bs.sequential_lattice(mc, geom), grid, cfg, geom)
                if table.R.max() > best:
                    best = float(table.R.max())
                    best_cfg = f"sequential n={n:g} N_s={n_s} stark={stark}"
    ok = best >= 0.3
    assert report("10 peak reflectivity", ok,
                  f"max R = {best:.3f} at {best_cfg} (need >= 0.3)")


def test_11_cli_determinism(tmp_path):
    cfg_text = ("[model]\nkind = two_component\nn_s = 150\nn_ss = 6\n"
                "[scan]\ngrid = -8 8 161\nout = det\n")
    path = tmp_path / "det.cfg"
    path.write_text(cfg_text, encoding="utf-8")
    payloads = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        code = cli_main(["spectrum", "--config", str(path), "--out", str(out),
                         "--svg"])
        assert code == 0
        payloads.append(((out / "det.csv").read_bytes(),
                         (out / "det.svg").read_bytes()))
    ok = all(p == payloads[0] for p in payloads[1:])
    assert report("11 CLI determinism", ok,
                  "CSV and SVG bytes identical across three runs")
