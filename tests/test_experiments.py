import dataclasses
import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import braggstack as bs
from braggstack.config import default_config_text, parse_config
from braggstack.experiments import GRID_CHUNK, ORACLE_MAX_SLABS, OracleError, \
    _chunked, _prominences, _scattered


def test_spectrum_zero_density(cfg, geom):
    chain = bs.SlabChain(np.zeros(10), np.zeros(10),
                         np.full(10, geom.lambda_dip / 2))
    grid = bs.detuning_grid(-5, 5, 51)
    table = bs.spectrum(chain, grid, cfg, geom)
    np.testing.assert_array_equal(table.R, 0.0)
    np.testing.assert_array_equal(table.T, 1.0)
    np.testing.assert_array_equal(table.A, 0.0)


def test_spectrum_sum_rule_exact(cfg, geom):
    # A is constructed as 1 - (R + T); re-summing stays at machine precision
    chain = bs.two_component_lattice(3e17, 0.2, 300, 10, geom)
    table = bs.spectrum(chain, bs.detuning_grid(-10, 5, 151), cfg, geom)
    np.testing.assert_allclose(table.R + table.T + table.A, 1.0, rtol=0, atol=5e-16)
    assert np.all(table.A >= -1e-9)


def test_spectrum_rejects_empty_grid(cfg, geom):
    with pytest.raises(ValueError):
        bs.spectrum(bs.perfect_lattice(3e17, 2, geom), np.array([]), cfg, geom)


def test_spectrum_reports_offending_grid_point(cfg, geom):
    # a non-finite detuning is invalid input: the error names the field and
    # the first offending grid point
    grid = bs.detuning_grid(-40, 15, 23)
    grid[[7, 9]] = np.nan
    with pytest.raises(ValueError, match=r"^delta_brg must be finite: nan at index 7$"):
        bs.spectrum(bs.perfect_lattice(3e17, 20, geom), grid, cfg, geom)


def test_spectrum_of_20000_period_chain_is_finite_and_passive(cfg, geom):
    # deep in the opaque stop band of a detuned lattice; the transfer-matrix
    # product ran past 1e12 here and was stopped by an overflow guard
    g8 = geom.with_lattice_mismatch(0.8e-9)
    chain = bs.perfect_lattice(3e17, 20_000, g8)
    table = bs.spectrum(chain, bs.detuning_grid(), cfg, g8)
    for col in (table.R, table.T, table.A):
        assert np.all(np.isfinite(col)) and np.all(col >= 0.0) and np.all(col <= 1.0)
    assert table.T.min() < 1e-100 and table.A.min() > 0.2
    # where the probe no longer reaches the far end, 10^4 periods more
    # leave R unchanged
    opaque = table.T < 1e-30
    assert opaque.sum() > 100
    longer = bs.spectrum(bs.perfect_lattice(3e17, 30_000, g8), bs.detuning_grid(),
                         cfg, g8)
    np.testing.assert_allclose(longer.R[opaque], table.R[opaque], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name, n, mismatch, delta_g", [
    ("perfect_2000", 3e18, 0.5e-9, (-40.0, -12.0, 0.0, 0.4, 15.0)),
    ("perfect_9000", 3e17, 0.8e-9, (-40.0, -2.0, 0.0, 0.9, 15.0)),
])
def test_opaque_probe_chains_match_oracle(cfg, geom, name, n, mismatch, delta_g):
    # passive chains of 2,000 and 9,000 periods that an overflow guard
    # used to reject, through the stop band
    g = geom.with_lattice_mismatch(mismatch)
    chain = bs.perfect_lattice(n, int(name.split("_")[1]), g)
    delta = np.array(delta_g) * cfg.gamma
    res = bs.sweep_scatter(chain, delta, cfg, g)
    assert np.all(res.big_a > 0.0)
    for k, d in enumerate(delta):
        r_o, t_o = bs.solve_boundary_value(chain, d, cfg, g)
        assert abs(res.r[k] - r_o) < 1e-10 and abs(res.t[k] - t_o) < 1e-10


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# more than two chunks, the last one ragged
WIDE_GRID = bs.detuning_grid(-40, 15, 2 * GRID_CHUNK + 123)


@pytest.mark.parametrize("stark", [False, True])
def test_sweep_chunks_match_full_array_bitwise(cfg, geom, stark):
    chain = bs.sequential_lattice(bs.ThermalModelConfig(
        n=3e17, n_s=600, n_ss=20, T=geom.T, U0=geom.U0, stark_enabled=stark), geom)
    delta = WIDE_GRID * cfg.gamma
    chunked = bs.sweep_scatter(chain, delta, cfg, geom)
    full = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
    for name in ("r", "t", "big_r", "big_t", "big_a", "phi"):
        assert _same_bits(getattr(chunked, name), getattr(full, name)), name


def test_band_structure_chunks_match_full_array_bitwise(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    theta, rho = bs.band_structure(chain, WIDE_GRID, cfg, geom)
    ref = np.atleast_1d(bs.bloch_phase(
        bs.unit_cell_matrix(chain, WIDE_GRID * cfg.gamma, cfg, geom)))
    ref = np.unwrap(ref.real) + 1j * ref.imag
    assert _same_bits(theta, ref)
    assert _same_bits(rho, bs.density_of_states(WIDE_GRID, ref))


def test_chunked_one_point_tail_is_bitwise(cfg, geom):
    # GRID_CHUNK + 1 points: the last slice is a one-point grid, which the
    # engine scans slab by slab like the full array
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    delta = bs.detuning_grid(-40, 15, GRID_CHUNK + 1) * cfg.gamma
    widths = []

    def fn(d):
        widths.append(d.size)
        return _scattered(chain, d, cfg, geom)

    chunked = _chunked(fn, delta)
    assert widths == [GRID_CHUNK, 1]
    for got, want in zip(chunked, _scattered(chain, delta, cfg, geom), strict=True):
        assert _same_bits(got, want)


def test_sweep_scalar_detuning_gives_scalar_result(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 100, 8, geom)
    res = bs.sweep_scatter(chain, 0.5 * cfg.gamma, cfg, geom)
    assert isinstance(res.r, complex) and isinstance(res.big_r, float)
    assert res == bs.scatter(bs.chain_matrix(chain, 0.5 * cfg.gamma, cfg, geom))


def test_sweep_reports_global_grid_index_past_first_chunk(cfg, geom):
    # the bad point sits in the second chunk and must be reported by its
    # index in the whole grid
    chain = bs.perfect_lattice(3e17, 20, geom)
    grid = np.zeros(GRID_CHUNK + 30)
    grid[[GRID_CHUNK + 5, GRID_CHUNK + 20]] = -np.inf
    with pytest.raises(ValueError, match=rf"-inf at index {GRID_CHUNK + 5}$"):
        bs.sweep_scatter(chain, grid, cfg, geom)
    with pytest.raises(ValueError, match=rf"-inf at index {GRID_CHUNK + 5}$"):
        bs.band_structure(chain, grid, cfg, geom)


def test_composites_equal_their_public_parts_bitwise(cfg, geom):
    # sweep_scatter = scatter(chain_matrix), chain_matrix =
    # matrix_power(unit_cell_matrix), band_structure =
    # bloch_phase(unit_cell_matrix), each on the whole grid
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    delta = WIDE_GRID * cfg.gamma
    cell = bs.unit_cell_matrix(chain, delta, cfg, geom)
    total = bs.matrix_power(cell, chain.periods)
    assert _same_bits(bs.chain_matrix(chain, delta, cfg, geom), total)
    swept = bs.sweep_scatter(chain, delta, cfg, geom)
    parts = bs.scatter(total)
    for name in ("r", "t", "big_r", "big_t", "big_a", "phi"):
        assert _same_bits(getattr(swept, name), getattr(parts, name)), name
    theta, _ = bs.band_structure(chain, WIDE_GRID, cfg, geom)
    ref = bs.bloch_phase(cell)
    assert _same_bits(theta, np.unwrap(ref.real) + 1j * ref.imag)
    flat = chain.repeated()
    for d in (0.3 * cfg.gamma, delta[:5]):
        assert _same_bits(bs.chain_matrix(flat, d, cfg, geom),
                          bs.unit_cell_matrix(flat, d, cfg, geom))


@pytest.fixture
def threaded(monkeypatch):
    """Chunks of 7 points on two usable CPUs, whatever the machine has."""
    monkeypatch.setattr(bs.experiments, "GRID_CHUNK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_threaded_sweep_is_bitwise(cfg, geom, threaded):
    # four chunks, the last of one point, on the calling thread and a helper;
    # complex and real columns, in the order fn returns them
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    delta = bs.detuning_grid(-40, 15, 3 * 7 + 1) * cfg.gamma

    def fn(d):
        r, _, big_r, _, _, phi = _scattered(chain, d, cfg, geom)
        return big_r, r, phi, bs.bloch_phase(bs.unit_cell_matrix(chain, d, cfg, geom))

    got, want = _chunked(fn, delta), fn(delta)
    assert type(got) is tuple and len(got) == len(want)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


def test_threaded_spectrum_keeps_the_one_call_bits(cfg, geom, threaded):
    chain = bs.two_component_lattice(3e17, 0.2, 600, 20, geom)
    grid = bs.detuning_grid(-40, 15, 5 * 7 + 3)
    table = bs.spectrum(chain, grid, cfg, geom)
    res = bs.scatter(bs.chain_matrix(chain, grid * cfg.gamma, cfg, geom))
    for got, want in ((table.R, res.big_r), (table.T, res.big_t),
                      (table.A, res.big_a), (table.phi, res.phi)):
        assert _same_bits(got, want)


def test_threaded_sweep_raises_the_first_failure_in_grid_order(threaded):
    # the chunk at 7 fails only after the chunk at 14 has failed, so the
    # first failure in wall time is not the first in grid order
    later_failed, raised = threading.Event(), []

    def fn(d):
        start = int(d[0])
        if start == 7:
            assert later_failed.wait(10), "the chunks did not run side by side"
            raised.append(start)
            raise bs.EngineError("bad point", 2)
        if start == 14:
            raised.append(start)
            later_failed.set()
            raise bs.EngineError("bad point", 3)
        return (d,)

    with pytest.raises(bs.EngineError) as exc:
        _chunked(fn, np.arange(30.0))
    assert raised == [14, 7]
    assert exc.value.index == 9 and str(exc.value) == "bad point at grid index 9"


def test_threaded_sweep_takes_every_chunk_once(monkeypatch):
    # more threads than cores and a short switch interval: a chunk start
    # pulled twice or lost shows in the counts or in the output
    monkeypatch.setattr(bs.experiments, "GRID_CHUNK", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    starts, lock = [], threading.Lock()

    def fn(d):
        with lock:
            starts.append(int(d[0]))
        return d + 1.0, np.full(d.size, int(d[0]))

    grid = np.arange(3001.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        plus, first = _chunked(fn, grid)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(starts) == list(range(0, 3001, 3))
    assert _same_bits(plus, grid + 1.0)
    assert _same_bits(first, grid.astype(int) // 3 * 3)


def test_one_cpu_sweeps_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(bs.experiments, "GRID_CHUNK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_thread(self):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    callers = set()

    def fn(d):
        callers.add(threading.get_ident())
        return (2.0 * d,)

    grid = np.arange(30.0)
    assert _same_bits(_chunked(fn, grid)[0], 2.0 * grid)
    assert callers == {threading.get_ident()}


class _Stop(BaseException):
    """Not an Exception: what `except Exception` lets through."""


def test_threaded_sweep_raises_what_a_helper_raises(threaded):
    # the helper's chunk raises a BaseException; the caller must not return
    # the slice it left unwritten
    caller, helper_failed = threading.get_ident(), threading.Event()

    def fn(d):
        if d[0] == 0.0:  # chunk 0, before any helper starts
            return (d,)
        if threading.get_ident() == caller:
            assert helper_failed.wait(10), "the helper took no chunk"
            return (d,)
        helper_failed.set()
        raise _Stop(int(d[0]))

    with pytest.raises(_Stop):
        _chunked(fn, np.arange(30.0))


def test_interrupt_on_the_calling_thread_stops_every_thread(threaded):
    # Ctrl-C arrives on the calling thread while the helper is in a chunk:
    # the KeyboardInterrupt propagates as itself once the helper has ended,
    # and the helper leaves the other chunks of the 50 alone
    caller, interrupted, taken = threading.get_ident(), threading.Event(), []

    def fn(d):
        taken.append(int(d[0]))
        if d[0] == 0.0:
            return (d,)
        if threading.get_ident() == caller:
            interrupted.set()
            raise KeyboardInterrupt
        assert interrupted.wait(10), "the calling thread took no chunk"
        return (d,)

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _chunked(fn, np.arange(50 * 7.0))
    assert threading.active_count() == before
    assert len(taken) < 10


def test_oracle_matches_engine_grid_path_on_random_chains(cfg, geom):
    # the slab-by-slab scan of a grid against the oracle, point by point
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        chain = bs.SlabChain(rng.uniform(0, 3e11, n),
                             rng.uniform(-5, 5, n) * cfg.gamma,
                             rng.uniform(0, 1.5e-6, n))
        delta = rng.uniform(-12, 12, 3) * cfg.gamma
        res = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
        for k, d in enumerate(delta):
            r_o, t_o = bs.solve_boundary_value(chain, d, cfg, geom)
            worst = max(worst, abs(res.r[k] - r_o), abs(res.t[k] - t_o))
    assert worst < 1e-10


def test_oracle_matches_engine_on_random_chains(cfg, geom):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        chain = bs.SlabChain(rng.uniform(0, 3e11, n),
                             rng.uniform(-5, 5, n) * cfg.gamma,
                             rng.uniform(0, 1.5e-6, n))
        delta = rng.uniform(-12, 12) * cfg.gamma
        res = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
        r_o, t_o = bs.solve_boundary_value(chain, delta, cfg, geom)
        worst = max(worst, abs(res.r - r_o), abs(res.t - t_o))
    assert worst < 1e-10


def _oracle_per_slab(chain, delta, cfg, geom):
    """The banded system assembled one entry at a time, and its solution."""
    from scipy.linalg import solve_banded

    flat = chain.repeated()
    n = flat.n_slabs
    zs = np.atleast_1d(bs.zeta(flat.surface_density, delta - flat.stark_shift, cfg))
    k_z = geom.k_brg * math.cos(geom.beta_i)
    phases = np.ones(n, dtype=complex)
    phases[1:] = np.exp(1j * k_z * flat.gap_after[:-1])
    ab = np.zeros((5, 2 * n), dtype=complex)
    rhs = np.zeros(2 * n, dtype=complex)

    def put(row, col, value):
        ab[2 + row - col, col] = value

    for j in range(n):
        iz, ph = 1j * zs[j], phases[j]
        if j == 0:
            rhs[0] += (1.0 + iz) * ph
            rhs[1] += -iz * ph
        else:
            put(2 * j, 2 * j - 1, -(1.0 + iz) * ph)
            put(2 * j + 1, 2 * j - 1, iz * ph)
        put(2 * j, 2 * j, -iz / ph)
        put(2 * j + 1, 2 * j, -(1.0 - iz) / ph)
        put(2 * j, 2 * j + 1, 1.0)
        if j < n - 1:
            put(2 * j + 1, 2 * j + 2, 1.0)
    x = solve_banded((2, 2), ab, rhs)
    return complex(x[0]), complex(x[-1] * np.exp(1j * k_z * flat.gap_after[-1]))


def test_oracle_equals_per_slab_assembly(cfg, geom):
    # the diagonals filled by slices hold the per-entry system; scalar and
    # array complex arithmetic may differ in the last bit
    rng = np.random.default_rng(77)
    for n in (1, 2, 3, 40):
        chain = bs.SlabChain(rng.uniform(0, 3e11, n), rng.uniform(-5, 5, n) * cfg.gamma,
                             rng.uniform(0, 1.5e-6, n), periods=3)
        delta = rng.uniform(-12, 12) * cfg.gamma
        got = bs.solve_boundary_value(chain, delta, cfg, geom)
        want = _oracle_per_slab(chain, delta, cfg, geom)
        assert abs(got[0] - want[0]) < 1e-14 and abs(got[1] - want[1]) < 1e-14


def test_oracle_single_slab_closed_form(cfg, geom):
    chain = bs.SlabChain([1.215e11], [0.0], [geom.lambda_dip / 2])
    r, t = bs.solve_boundary_value(chain, 0.0, cfg, geom)
    z = bs.zeta(1.215e11, 0.0, cfg)
    assert abs(r - 1j * z / (1 - 1j * z)) < 1e-12
    assert abs(abs(t) - abs(1 / (1 - 1j * z))) < 1e-12


def test_oracle_empty_chain(cfg, geom):
    chain = bs.SlabChain(np.zeros(0), np.zeros(0), np.zeros(0))
    assert bs.solve_boundary_value(chain, 0.0, cfg, geom) == (0.0, 1.0)


def test_oracle_handles_periodic_chains(cfg, geom):
    chain = bs.perfect_lattice(3e17, 37, geom)
    res = bs.scatter(bs.chain_matrix(chain, 1.0 * cfg.gamma, cfg, geom))
    r_o, t_o = bs.solve_boundary_value(chain, 1.0 * cfg.gamma, cfg, geom)
    assert abs(res.r - r_o) < 1e-10 and abs(res.t - t_o) < 1e-10


@pytest.mark.parametrize("periods", [2000, 10_000])
def test_oracle_matches_engine_past_ten_thousand_slabs(cfg, geom, periods):
    # the default cell at 2,000 and 10,000 periods (42,000 and 210,000
    # slabs), where T falls to 4.7e-20 and 2.6e-97: the grid ends, the
    # reflection peak and the transmission floor
    chain = bs.two_component_lattice(3e17, 0.2, periods, 20, geom)
    assert chain.total_slabs == 21 * periods <= ORACLE_MAX_SLABS
    delta = bs.detuning_grid() * cfg.gamma
    res = bs.sweep_scatter(chain, delta, cfg, geom)
    for k in sorted({0, delta.size - 1, int(np.argmax(res.big_r)),
                     int(np.argmin(res.big_t))}):
        r_o, t_o = bs.solve_boundary_value(chain, delta[k], cfg, geom)
        assert max(abs(res.r[k] - r_o), abs(res.t[k] - t_o)) <= 1e-10


@settings(max_examples=8, deadline=None)
@given(n=st.integers(10_000, 50_000), seed=st.integers(0, 2**32 - 1),
       delta_g=st.floats(-12.0, 12.0))
def test_oracle_matches_long_random_flat_chains(cfg, geom, n, seed, delta_g):
    # passive non-periodic chains past 10^4 slabs, at one detuning as a
    # scalar and as a one-point grid; with layers of up to 1e11 m^-2 (the
    # default cell's are 1.2e11), T falls to ~1e-30 at 5x10^4 slabs
    rng = np.random.default_rng(seed)
    chain = bs.SlabChain(rng.uniform(0, 1e11, n), rng.uniform(-5, 5, n) * cfg.gamma,
                         rng.uniform(0, 1.5e-6, n))
    delta = delta_g * cfg.gamma
    r_o, t_o = bs.solve_boundary_value(chain, delta, cfg, geom)
    for d in (delta, np.array([delta])):
        res = bs.sweep_scatter(chain, d, cfg, geom)
        assert max(np.max(abs(res.r - r_o)), np.max(abs(res.t - t_o))) <= 1e-10


@pytest.mark.parametrize("n, periods", [(ORACLE_MAX_SLABS + 1, 1),
                                        (2, ORACLE_MAX_SLABS // 2 + 1)])
def test_oracle_names_the_slab_count_past_its_cap(cfg, geom, n, periods):
    # refused before a periodic chain is tiled, with the count and the cap
    chain = bs.SlabChain(np.full(n, 1e11), np.zeros(n), np.full(n, 4e-7),
                         periods=periods)
    with pytest.raises(OracleError, match=f"limited to {ORACLE_MAX_SLABS} slabs, "
                                          f"got {chain.total_slabs}$"):
        bs.solve_boundary_value(chain, 0.0, cfg, geom)


@pytest.mark.parametrize("delta_g", [math.nan, math.inf, -math.inf, 0.0, -1.3, 4.0])
@pytest.mark.parametrize("n", [0, 3])
def test_oracle_names_a_non_finite_detuning(cfg, geom, delta_g, n):
    # a non-finite detuning is named before any slab is solved, also on an
    # empty chain; a finite one agrees with the engine
    chain = bs.SlabChain(np.full(n, 1e11), np.zeros(n), np.full(n, 4e-7))
    delta = delta_g * cfg.gamma
    if not math.isfinite(delta):
        with pytest.raises(ValueError, match=f"^delta_brg must be finite: {delta}$"):
            bs.solve_boundary_value(chain, delta, cfg, geom)
        return
    r_o, t_o = bs.solve_boundary_value(chain, delta, cfg, geom)
    res = bs.scatter(bs.chain_matrix(chain, delta, cfg, geom))
    assert abs(res.r - r_o) < 1e-12 and abs(res.t - t_o) < 1e-12


@pytest.mark.parametrize("delta", [np.array([0.0, 1.0]), np.array([0.0]),
                                   [0.0, math.nan], np.zeros((1, 1))])
def test_scalar_detunings_refuse_arrays_by_name(cfg, geom, delta):
    # field_profile and the oracle take one detuning: an array of any shape,
    # one element included, is refused by name before its values are read
    chain = bs.SlabChain([1e11], [0.0], [4e-7])
    named = r"^delta_brg must be a scalar, got an array of shape \("
    with pytest.raises(TypeError, match=named):
        bs.solve_boundary_value(chain, delta, cfg, geom)
    with pytest.raises(TypeError, match=named):
        bs.field_profile(chain, delta, 4, cfg, geom)
    z, _ = bs.field_profile(chain, np.float64(0.5) * cfg.gamma, 4, cfg, geom)
    assert z.size == 5


def test_detected_powers_reference(cfg, geom):
    res = bs.ScatterResult(r=0j, t=0j, big_r=0.3, big_t=0.5, big_a=0.2, phi=0.0)
    reading = bs.detected_powers(res, 0.16, 30e-6)
    assert reading.p_r == pytest.approx(1.44e-6, rel=1e-12)
    assert reading.p_r + reading.p_t + reading.p_a == pytest.approx(30e-6, rel=1e-12)


def test_detected_powers_transparent_limit():
    res = bs.ScatterResult(r=0j, t=1 + 0j, big_r=0.0, big_t=1.0, big_a=0.0, phi=0.0)
    reading = bs.detected_powers(res, 0.16, 30e-6)
    assert reading.p_t == pytest.approx(30e-6)
    assert reading.p_r == 0.0 and reading.p_a == 0.0


def test_detected_powers_sum_rule_on_spectrum(cfg, geom):
    chain = bs.two_component_lattice(3e17, 0.2, 100, 8, geom)
    res = bs.sweep_scatter(chain, bs.detuning_grid(-5, 5, 41) * cfg.gamma, cfg, geom)
    reading = bs.detected_powers(res, 0.16, 30e-6)
    np.testing.assert_allclose(reading.p_r + reading.p_t + reading.p_a,
                               30e-6, rtol=1e-12)


def test_detected_powers_eta_bounds():
    res = bs.ScatterResult(0j, 1 + 0j, 0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bs.detected_powers(res, 1.5, 1.0)


def test_saturation_scan_quadratic_then_saturating(cfg, geom):
    numbers = np.logspace(4, math.log10(4e7), 12)
    _, max_r = bs.saturation_scan(numbers, geom, cfg, n_s=400, f_dw=0.2, n_ss=10)
    assert np.all(np.diff(max_r) > 0)
    # quadratic at low atom number
    _, pair = bs.saturation_scan([1e4, 1e5], geom, cfg, n_s=400, f_dw=0.2, n_ss=10)
    assert pair[1] / pair[0] == pytest.approx(100.0, rel=0.05)
    # diminishing gain per decade at the top of the range
    first_gain = max_r[4] / max_r[0]
    last_gain = max_r[-1] / max_r[-5]
    assert last_gain < 0.25 * first_gain
    assert bs.saturation_scan([0.0], geom, cfg)[1][0] == 0.0


def test_atom_number_density_mapping(geom):
    sigma_r = geom.derived().sigma_r
    volume = 10_000 * (geom.lambda_dip / 2) * 2 * math.pi * sigma_r ** 2
    assert bs.atom_number_to_density(1e7, geom) == pytest.approx(1e7 / volume)


def test_atom_number_to_density_refuses_a_cloud_of_zero_volume(cfg, geom):
    cold = dataclasses.replace(geom, T=0.0)
    with pytest.raises(ValueError, match=r"zero volume: its radial width sigma_r = 0\.0 m"):
        bs.atom_number_to_density(1e7, cold)
    with pytest.raises(ValueError, match="zero volume"):
        bs.saturation_scan([1e7], cold, cfg, n_s=5, n_ss=2,
                           delta_over_gamma=bs.detuning_grid(-1, 1, 5))
    # sigma_r**2 underflows; a numpy float used to give inf with a RuntimeWarning
    thin = dataclasses.replace(geom, w_dip=np.float64(1e-300))
    assert 0.0 < thin.derived().sigma_r
    with pytest.raises(ValueError, match="zero volume"):
        bs.atom_number_to_density(1e7, thin)


def test_lattice_constant_scan_family(cfg1, geom):
    grid = bs.detuning_grid(-10, 10, 161)
    dls = (-0.4e-9, 0.0, 0.4e-9)
    # hold the per-layer surface density fixed so the pure interference
    # mirror is visible (n*lambda_dip/2 otherwise tracks the mismatch)
    sd_target = 3e17 * geom.lambda_brg / math.cos(geom.beta_i) / 2
    build = lambda g: bs.perfect_lattice(2 * sd_target / g.lambda_dip, 150, g)
    tables = bs.lattice_constant_scan(dls, build, grid, cfg1, geom)
    assert len(tables) == 3
    # matched, Stark-free lattice: spectrum symmetric about the line center
    mid = tables[1]
    np.testing.assert_allclose(mid.R, mid.R[::-1], atol=1e-9)
    # +-mismatch pair mirrors in peak height
    assert tables[0].R.max() == pytest.approx(tables[2].R.max(), rel=1e-6)


def test_radial_average_limits(cfg, geom):
    grid = bs.detuning_grid(-6, 6, 81)
    build = lambda n: bs.two_component_lattice(n, 0.2, 200, 8, geom)
    plain = bs.spectrum(build(3e17), grid, cfg, geom)
    one = bs.radial_average(3e17, geom.derived().sigma_r, 1, build, grid, cfg, geom)
    np.testing.assert_array_equal(one.R, plain.R)
    flat = bs.radial_average(3e17, math.inf, 5, build, grid, cfg, geom)
    np.testing.assert_allclose(flat.R, plain.R, atol=1e-9)


def test_radial_average_softens_dip(cfg, geom):
    grid = bs.detuning_grid(-6, 6, 241)
    build = lambda n: bs.two_component_lattice(n, 0.2, 600, 8, geom)
    plain = bs.spectrum(build(3e17), grid, cfg, geom)
    avg = bs.radial_average(3e17, geom.derived().sigma_r, 8, build, grid, cfg, geom)
    i0 = np.argmin(np.abs(grid))
    iside = np.argmin(np.abs(grid - 3))

    def dip_contrast(table):
        return table.R[iside] - table.R[i0]

    assert dip_contrast(avg) < dip_contrast(plain)


def test_detuning_grid_rejects_a_non_integer_point_count():
    # numpy's own error would not name the input
    with pytest.raises(TypeError, match=r"^points must be an integer: 5\.0$"):
        bs.detuning_grid(-1, 1, 5.0)
    assert _same_bits(bs.detuning_grid(-1, 1, np.int64(5)), np.linspace(-1, 1, 5))


@pytest.mark.parametrize("sigma_r", [0.0, -1e-5, math.nan, -math.inf])
def test_radial_average_refuses_a_width_that_is_not_positive(cfg, geom, sigma_r):
    build = lambda n: bs.perfect_lattice(n, 20, geom)
    with pytest.raises(ValueError, match=r"^sigma_r must be positive .*got "):
        bs.radial_average(3e17, sigma_r, 2, build, bs.detuning_grid(-1, 1, 5),
                          cfg, geom)


def test_radial_average_of_a_width_whose_square_underflows(cfg, geom):
    # the ring densities depend on k / n_rings only: sigma_r**2 = 0.0 at
    # sigma_r = 1e-200 divides nothing
    build = lambda n: bs.perfect_lattice(n, 20, geom)
    grid = bs.detuning_grid(-3, 3, 7)
    tiny, wide = (bs.radial_average(3e17, s, 3, build, grid, cfg, geom)
                  for s in (1e-200, 1e-5))
    for f in ("R", "T", "A", "phi"):
        assert _same_bits(getattr(tiny, f), getattr(wide, f)), f


def test_radial_average_rejects_a_non_integer_ring_count(cfg, geom):
    build = lambda n: bs.perfect_lattice(n, 20, geom)
    with pytest.raises(TypeError, match=r"^n_rings must be an integer: 2\.0$"):
        bs.radial_average(3e17, 1e-5, 2.0, build, bs.detuning_grid(-1, 1, 5),
                          cfg, geom)


def test_radial_average_phase_is_phase_of_mean_amplitude(cfg, geom):
    grid = bs.detuning_grid(-8, 8, 161)
    build = lambda n: bs.two_component_lattice(n, 0.2, 600, 20, geom)
    sigma_r = geom.derived().sigma_r
    n_rings = 8
    avg = bs.radial_average(3e17, sigma_r, n_rings, build, grid, cfg, geom)
    rings = []
    for k in range(n_rings):  # rho = 2.5 sigma_r sqrt(k / n_rings)
        rings.append(bs.spectrum(
            build(3e17 * math.exp(-3.125 * k / n_rings)), grid, cfg, geom))
    big_r = sum(t.R for t in rings) / n_rings
    assert _same_bits(avg.R, big_r)
    r_mean = sum(np.sqrt(t.R) * np.exp(1j * t.phi) for t in rings) / n_rings
    np.testing.assert_allclose(np.exp(1j * avg.phi), r_mean / np.abs(r_mean),
                               rtol=0, atol=1e-12)
    # at -0.1 Gamma the ring phases straddle the branch cut (-3.13 .. 3.03);
    # their arithmetic mean (0.75 rad) points nowhere near the mean amplitude
    i = int(np.argmin(np.abs(grid + 0.1)))
    phases = [t.phi[i] for t in rings]
    assert max(phases) - min(phases) > math.pi
    assert avg.phi[i] == pytest.approx(3.113, abs=1e-3)


def test_band_structure_stop_band_and_dos(cfg1, geom):
    # scan the lattice constant through the band edge at fixed real strength
    kz = geom.k_brg * math.cos(geom.beta_i)
    eps = np.linspace(-0.08, 0.04, 601)
    cells = np.stack([
        bs.matmul2(bs.layer_matrix(0.02),
                   bs.gap_matrix((math.pi + e) / kz, geom.k_brg, geom.beta_i))
        for e in eps])
    theta = bs.bloch_phase(cells)
    rho = bs.density_of_states(eps, theta)
    ingap = theta.imag > 1e-9
    assert ingap.any() and (~ingap).any()
    # expected window: -2*zeta < eps < 0
    assert eps[ingap].max() < 0.0
    assert eps[ingap].min() == pytest.approx(-0.04, abs=2e-3)
    assert np.all(rho[ingap] == 0.0)
    assert rho[~ingap].max() > 0.0


def test_band_structure_of_physical_chain(cfg1, geom):
    # absorptive cells decay everywhere: Im(theta) > 0 swamps the 1e-9 gap
    # threshold, so the DOS diagnostic is meaningful for lossless cells only
    g8 = geom.with_lattice_mismatch(0.8e-9)
    chain = bs.perfect_lattice(3e17, 100, g8)
    grid = bs.detuning_grid(-10, 10, 401)
    theta, rho = bs.band_structure(chain, grid, cfg1, g8)
    assert np.all(np.isfinite(theta))
    assert np.all(theta.imag >= 0.0)
    assert np.all(rho[theta.imag > 1e-9] == 0.0)
    # strongest decay near the atomic resonance
    assert abs(grid[np.argmax(theta.imag)]) < 2.0


def test_absorption_splits_for_detuned_lattice(cfg1, geom):
    # deep in the opaque regime with a detuned lattice constant, absorption
    # develops two peaks at the stop-band edges with a suppressed interior;
    # at the exactly matched angle the cell trace is pinned to the band edge
    # (cos theta = -1 for every detuning) and no such split can open
    g8 = geom.with_lattice_mismatch(0.8e-9)
    grid = np.linspace(-6, 12, 721)
    res = bs.sweep_scatter(bs.perfect_lattice(3e17, 2000, g8),
                           grid * cfg1.gamma, cfg1, g8)
    peaks = bs.reflection_minima(grid, -res.big_a, prominence=1e-2)
    assert len(peaks) >= 2
    interior = res.big_a[peaks[0]:peaks[-1] + 1].min()
    assert interior < 0.6 * res.big_a[peaks[0]]
    assert interior < 0.6 * res.big_a[peaks[-1]]
    matched = bs.sweep_scatter(bs.perfect_lattice(3e17, 2000, geom),
                               grid * cfg1.gamma, cfg1, geom)
    assert len(bs.reflection_minima(grid, -matched.big_a, prominence=1e-3)) == 1


def test_reflection_minima_tool():
    x = np.linspace(-5, 5, 201)
    y = 0.5 + 0.1 * np.cos(2 * x)
    idx = bs.reflection_minima(x, y, prominence=1e-3)
    np.testing.assert_allclose(x[idx], [-3 * math.pi / 2, -math.pi / 2,
                                        math.pi / 2, 3 * math.pi / 2], atol=0.05)
    idx = bs.reflection_minima(x, y, prominence=1e-3, window=(0, 2))
    assert len(idx) == 1 and abs(x[idx[0]] - math.pi / 2) < 0.05


@pytest.mark.parametrize("call, error, message", [
    (lambda cfg, geom: bs.matrix_power(bs.identity_matrix(), 2.0),
     TypeError, "n must be an integer: 2.0"),
    (lambda cfg, geom: bs.saturation_scan([np.nan], geom, cfg),
     ValueError, "atom_numbers must be finite: nan at index 0"),
    (lambda cfg, geom: bs.lattice_constant_scan(
        [np.nan], lambda g: bs.perfect_lattice(3e17, 3, g), bs.detuning_grid(),
        cfg, geom),
     ValueError, "delta_lambda_values must be finite: nan at index 0"),
    (lambda cfg, geom: bs.reflection_minima(np.arange(3.0), [0.1, 0.2]),
     ValueError, "delta_over_gamma and big_r must be matching 1D arrays"),
], ids=["matrix_power-float", "saturation_scan-nan", "lattice_constant_scan-nan",
        "reflection_minima-lengths"])
def test_bad_inputs_are_refused_by_name(cfg, geom, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(cfg, geom)


def test_radial_average_of_no_atoms_has_zero_phase(cfg, geom):
    grid = bs.detuning_grid(-2, 2, 5)
    build = lambda n: bs.SlabChain(np.full(3, n), np.zeros(3),
                                   np.array([0.0, 0.0, 1.0]) * geom.lambda_dip,
                                   periods=4)
    avg = bs.radial_average(0.0, geom.derived().sigma_r, 3, build, grid, cfg, geom)
    assert np.all(avg.R == 0.0)
    assert np.all(avg.phi == 0.0) and not np.any(np.signbit(avg.phi))


# few distinct levels make plateaus and ties; steps of 0.1 round in binary
_levels = st.integers(0, 6).map(lambda k: 0.1 * k)
_samples = st.one_of(
    st.lists(_levels, max_size=40),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=True), max_size=40),
    st.lists(st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 0.3, 0.1 + 0.2]),
             max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(r=_samples, data=st.data())
def test_reflection_minima_matches_find_peaks(r, data):
    from scipy.signal import find_peaks

    r = np.array(r, dtype=float)
    grid = np.arange(r.size) * 0.5 - 3.0
    # thresholds at exact prominences of the data, where >= decides
    gaps = sorted({abs(a - b) for a in r.tolist() for b in r.tolist()})
    prominence = data.draw(st.sampled_from(gaps or [0.0]) | st.sampled_from(
        [0.0, 1e-3, 0.25, 1.0]))
    ref, _ = find_peaks(-r, prominence=prominence)
    idx = bs.reflection_minima(grid, r, prominence=prominence)
    assert idx.dtype.kind == "i" and idx.tolist() == ref.tolist()
    lo, hi = sorted(data.draw(st.tuples(st.floats(-4, 18), st.floats(-4, 18))))
    windowed = bs.reflection_minima(grid, r, prominence=prominence,
                                    window=(lo, hi))
    assert windowed.tolist() == [i for i in ref if lo <= grid[i] <= hi]


@pytest.mark.parametrize("series", ["rounded noise", "default spectrum"])
def test_reflection_minima_matches_find_peaks_on_long_series(series):
    from scipy.signal import find_peaks

    if series == "rounded noise":
        # one-decimal levels: hundreds of candidates, plateaus and equal peaks
        r = np.round(np.random.default_rng(7).standard_normal(1101), 1)
    else:
        run = parse_config(default_config_text())
        r = bs.spectrum(run.build_chain(), run.scan.detuning_grid(),
                        run.response, run.geometry).R
    grid = np.arange(r.size) * 0.05
    peaks, props = find_peaks(-r, prominence=0.0)
    assert _prominences(-r, peaks).tobytes() == props["prominences"].tobytes()
    # thresholds at exact prominences, where >= decides
    exact = np.unique(props["prominences"])
    for prominence in [0.0, 1e-3, *exact[::max(1, exact.size // 8)], exact[-1]]:
        ref, _ = find_peaks(-r, prominence=prominence)
        assert bs.reflection_minima(grid, r, prominence=prominence).tolist() \
            == ref.tolist()
