import math
import re
import tracemalloc

import numpy as np
import pytest

from planswitch import (
    BRUTE_FORCE_MAX_T,
    CostSeries,
    Schedule,
    ValidationError,
    batch_sp_costs,
    brute_force_sp,
    cchase,
    csp_cost,
    delta_trace,
    deterministic_adversary,
    dsp_costs,
    gchase_player,
    gchase_s,
    measure_ratio,
    measure_ratio_dsp,
    monte_carlo,
    ofa_s,
    random_cost_series,
    randomized_lb_instance,
    simulate_randomized_batch,
    sp_cost,
    tariff,
)
from planswitch.adversary import _mean_stderr
from planswitch.chase import gchase_dsp


class TestLowerBoundInstance:
    def test_exact_sequence(self):
        cs = randomized_lb_instance(1.0, 0.5, 3)
        assert (cs.g0.tolist(), cs.g1.tolist()) == ([0.5, 0.0, 0.0], [0.0, 0.5, 0.5])

    def test_continuous_cost_closed_form(self):
        beta, small = 2.0, 0.25
        cs = randomized_lb_instance(beta, small, 6)
        got = csp_cost(cchase(delta_trace(cs, beta)), cs, beta)
        assert got == pytest.approx(2 * small * beta - small * small * beta, abs=1e-12)

    def test_offline_stays_fixed(self):
        beta, small = 1.0, 0.1
        cs = randomized_lb_instance(beta, small, 4)
        dt = delta_trace(cs, beta)
        opt = sp_cost(ofa_s(dt), cs, beta)
        assert opt == pytest.approx(small * beta, abs=1e-12)
        ratio = csp_cost(cchase(dt), cs, beta) / opt
        assert ratio == pytest.approx(2 - small, abs=1e-9)

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            randomized_lb_instance(1.0, 0.0, 3)
        with pytest.raises(ValidationError):
            randomized_lb_instance(1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            randomized_lb_instance(1.0, 0.5, 1)
        with pytest.raises(ValidationError):
            randomized_lb_instance(0.0, 0.5, 3)


class TestAdaptiveAdversary:
    def test_drives_ratio_toward_three(self):
        _, report = deterministic_adversary(lambda: gchase_player(1.0), 1.0, 200, 0.01)
        assert report.ratio is not None
        assert report.ratio >= 2.9

    def test_offline_on_realized_series_is_optimal(self):
        cs, _ = deterministic_adversary(lambda: gchase_player(1.0), 1.0, 150, 0.05)
        report = measure_ratio(ofa_s, cs, 1.0)
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_coarse_charging_stays_below_three(self):
        # monitored behavior, not a guarantee: with unit >= beta the game cannot
        # approach the bound
        _, report = deterministic_adversary(lambda: gchase_player(1.0), 1.0, 120, 1.5)
        assert report.ratio is not None and report.ratio < 3.0

    def test_adversary_is_causal(self):
        # the player sees exactly one cost pair per slot, nothing else
        calls = []

        def make_player():
            def step(g0, g1):
                calls.append((g0, g1))
                return 0

            return step

        cs, report = deterministic_adversary(make_player, 1.0, 10, 0.25)
        assert len(calls) == 10
        assert list(zip(cs.g0, cs.g1)) == calls
        # an always-fixed player eats every charge
        assert report.alg_cost == pytest.approx(10 * 0.25, abs=1e-12)

    def test_realized_series_is_what_the_player_saw(self):
        # each slot charges the plan the player held entering it
        calls = []

        def make_player():
            def step(g0, g1):
                calls.append((g0, g1))
                return (0, 1, 1, 0, 1)[len(calls) - 1]

            return step

        cs, report = deterministic_adversary(make_player, 2.0, 5, 0.5)
        assert list(zip(cs.g0.tolist(), cs.g1.tolist())) == calls
        assert calls == [(0.5, 0.0), (0.5, 0.0), (0.0, 0.5), (0.0, 0.5), (0.5, 0.0)]
        assert report.alg_cost == 0.5 + 0.5 + 2 * 2.0  # slots 1 and 3 charged, two switches to plan 1

    @pytest.mark.parametrize("plan", [2, -1, None])
    def test_player_plan_outside_0_1_refused(self, plan):
        def make_player():
            plans = iter([0, 1, plan, 0])
            return lambda g0, g1: next(plans)

        with pytest.raises(ValidationError, match=f"schedule entry at slot 3 must be 0 or 1, got {plan}"):
            deterministic_adversary(make_player, 1.0, 4, 0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            deterministic_adversary(lambda: gchase_player(1.0), 1.0, 0, 0.01)
        with pytest.raises(ValidationError):
            deterministic_adversary(lambda: gchase_player(1.0), 1.0, 10, 0.0)
        with pytest.raises(ValidationError, match="beta"):  # refused at every horizon, before play
            deterministic_adversary(lambda: gchase_player(1.0), 0.0, 10, 0.01)

    @pytest.mark.parametrize("unit", [0.01, 0.25, 1.5])
    def test_optimum_matches_exhaustive_search(self, unit):
        # the backward pass prices every horizon; exhaustive search is its oracle
        for horizon in range(1, BRUTE_FORCE_MAX_T + 1):
            cs, report = deterministic_adversary(lambda: gchase_player(1.0), 1.0, horizon, unit)
            assert abs(report.opt_cost - brute_force_sp(cs, 1.0).best_cost) <= 1e-12


class TestMeasureRatio:
    def test_gchase_ratio_on_lagging_instance(self):
        cs = CostSeries.from_pairs([(1, 0), (1, 0), (0, 2)])
        report = measure_ratio(gchase_s, cs, 2.0)
        assert report.alg_cost == pytest.approx(3.0, abs=1e-12)
        assert report.opt_cost == pytest.approx(2.0, abs=1e-12)
        assert report.ratio == pytest.approx(1.5, abs=1e-12)

    def test_offline_against_itself(self):
        rng = np.random.default_rng(2)
        cs = random_cost_series(rng, 9)
        assert measure_ratio(ofa_s, cs, 1.0).ratio == pytest.approx(1.0, abs=1e-12)

    def test_zero_cost_instance_flagged_undefined(self):
        cs = CostSeries.from_pairs([(0, 0)] * 4)
        report = measure_ratio(gchase_s, cs, 1.0)
        assert report.ratio is None
        assert report.opt_cost == 0.0

    def test_dsp_variant_uses_dp_reference(self):
        rng = np.random.default_rng(6)
        cs = random_cost_series(rng, 10)
        report = measure_ratio_dsp(lambda c: gchase_dsp(c, 0.5, 4), cs, 0.5, 4)
        assert report.ratio is not None
        assert report.ratio >= 1.0 - 1e-12


class TestMonteCarlo:
    def test_requires_two_runs(self):
        cs = CostSeries.from_pairs([(1, 0), (0, 1)])
        with pytest.raises(ValidationError):
            monte_carlo(cs, 1.0, 1, seed=0)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(7)
        cs = random_cost_series(rng, 8)
        a = monte_carlo(cs, 2.0, 500, seed=11)
        b = monte_carlo(cs, 2.0, 500, seed=11)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_degenerate_instance(self):
        cs = CostSeries.from_pairs([(0, 0)] * 5)
        report = monte_carlo(cs, 1.0, 100, seed=3)
        assert report.mean == 0.0
        assert report.stderr == 0.0
        assert report.ratio is None

    def test_mean_tracks_continuous_cost(self):
        rng = np.random.default_rng(9)
        cs = random_cost_series(rng, 9)
        dt = delta_trace(cs, 2.0)
        report = monte_carlo(cs, 2.0, 20000, seed=17)
        target = csp_cost(cchase(dt), cs, 2.0)
        assert abs(report.mean - target) <= 3 * report.stderr + 1e-9

    def test_overflow_refused_by_name(self):
        # every replicate and the optimum sum to inf: refused as run refuses it, with no RuntimeWarning (which
        # the test configuration turns into an error)
        with pytest.raises(ValidationError, match=r"^cost of gchase_r overflows a float: inf$"):
            monte_carlo(CostSeries([1e308] * 3, [1e308] * 3), 1.0, 10, 0)

    def test_largest_finite_costs_reported(self):
        report = monte_carlo(CostSeries([1e308, 0.0], [0.0, 1e308]), 1.0, 10, 0)
        assert math.isfinite(report.mean) and math.isfinite(report.stderr) and report.ratio is not None


CS2 = CostSeries.from_pairs([(1, 0), (0, 1)])


@pytest.mark.parametrize("call, message", [
    (lambda: monte_carlo(CS2, 1.0, 2.5, 0), "n_runs must be an integer, got 2.5"),
    (lambda: monte_carlo(CS2, 1.0, 4, 1.5), "seed must be an integer, got 1.5"),
    (lambda: monte_carlo(CS2, 1.0, 4, -1), "seed must be >= 0, got -1"),
    (lambda: monte_carlo(CS2, 1.0, 4, True), "seed must be an integer, got True"),  # not seed 1
    (lambda: monte_carlo(CS2, 1.0, 1, 0), "n_runs must be >= 2, got 1"),
    (lambda: simulate_randomized_batch(delta_trace(CS2, 1.0), 2.5, 0), "n_runs must be an integer, got 2.5"),
    (lambda: simulate_randomized_batch(delta_trace(CS2, 1.0), -1, 0), "n_runs must be >= 0, got -1"),
    (lambda: deterministic_adversary(lambda: gchase_player(1.0), 1.0, 2.5, 0.01),
     "horizon must be an integer, got 2.5"),
    (lambda: deterministic_adversary(lambda: gchase_player(1.0), 1.0, 0, 0.01), "horizon must be >= 1, got 0"),
    (lambda: randomized_lb_instance(1.0, 0.5, 2.5), "horizon must be an integer, got 2.5"),
    (lambda: randomized_lb_instance(1.0, 0.5, 1), "horizon must be >= 2, got 1"),
    # a player at fee 0 never switches: the adaptive game at beta 1 read ratio 5, above the bound of 3
    (lambda: gchase_player(0.0), "beta must be finite and > 0, got 0.0"),
], ids=["monte_carlo-runs-float", "monte_carlo-seed-float", "monte_carlo-seed-negative",
        "monte_carlo-seed-bool", "monte_carlo-one-run",
        "batch-runs-float", "batch-runs-negative", "adversary-horizon-float", "adversary-horizon-zero",
        "lb-horizon-float", "lb-horizon-one", "player-zero-fee"])
def test_argument_refused_by_name(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_arguments_run_as_ints():
    dt = delta_trace(CS2, 1.0)
    assert (simulate_randomized_batch(dt, np.int64(3), np.uint8(2)) == simulate_randomized_batch(dt, 3, 2)).all()
    assert monte_carlo(CS2, 1.0, np.int32(4), np.int64(1)) == monte_carlo(CS2, 1.0, 4, 1)
    assert deterministic_adversary(lambda: gchase_player(1.0), 1.0, np.int16(5), 0.1)[1] == \
        deterministic_adversary(lambda: gchase_player(1.0), 1.0, 5, 0.1)[1]


def row_mean_stderr(costs):
    """One row's statistics as numpy's 1-D ``mean`` and ``std(ddof=1)`` give them, on the row scaled by a power
    of two when they overflow: the one-row rule ``_mean_stderr`` applies to each row of a matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std, scale = costs.mean(), costs.std(ddof=1), 1.0
        if not (math.isfinite(mean) and math.isfinite(std)):
            scale = 2.0 ** (math.frexp(float(np.abs(costs).max()))[1] - 1)
            mean, std = (costs / scale).mean(), (costs / scale).std(ddof=1)
    return float(mean) * scale, float(std / math.sqrt(len(costs))) * scale


class TestMeanStderr:
    """The replicate statistics that run, sweep and monte_carlo report, one row of replicates at a time."""

    def test_plain_formulas(self):
        costs = np.random.default_rng(4).uniform(-5.0, 50.0, (9, 37))
        mean, stderr = _mean_stderr(costs)
        assert mean.tolist() == [float(row.mean()) for row in costs]
        assert stderr.tolist() == [float(row.std(ddof=1) / math.sqrt(37)) for row in costs]

    @pytest.mark.parametrize("exponent", [500, 900, 1018])
    def test_overflow_is_rescaled_exactly(self, exponent):
        # sums or squares of the middle row's costs overflow; its statistics are the unscaled ones times
        # 2**exponent, and the other rows keep their plain ones
        costs = np.random.default_rng(5).uniform(1.0, 40.0, (3, 100))
        mean, stderr = _mean_stderr(costs)
        scaled = costs.copy()
        scaled[1] *= 2.0**exponent
        for got, plain in zip(_mean_stderr(scaled), (mean, stderr)):
            assert got.tolist() == [plain[0], plain[1] * 2.0**exponent, plain[2]]

    def test_rows_match_the_one_row_rule(self):
        # Random matrices, some rows near 1e308 (their sums or squares overflow), some of one repeated value.
        rng = np.random.default_rng(6)
        for _ in range(300):
            rows, n = int(rng.integers(1, 12)), int(rng.integers(2, 60))
            costs = rng.uniform(-40.0, 40.0, (rows, n)) * 2.0 ** rng.choice([0, 0, 20, 1000, 1018], (rows, 1))
            costs[rng.random(rows) < 0.1] = 7.25
            mean, stderr = _mean_stderr(costs)
            assert list(zip(mean.tolist(), stderr.tolist())) == [row_mean_stderr(row) for row in costs]
        near_max = np.full((1, 4), 1.7e308)
        with np.errstate(over="ignore"):
            assert not np.isfinite(near_max.mean())
        assert [v.tolist() for v in _mean_stderr(near_max)] == [[1.7e308], [0.0]]


def two_matrix_sp_costs(states, cs, beta):
    """Cross-check of batch_sp_costs: the formula as matrix products, equal to the fold to about 1e-9."""
    g0, g1 = np.asarray(cs.g0), np.asarray(cs.g1)
    fstates = states.astype(np.float64)
    ups = states[:, 0].astype(np.int64) + (states[:, 1:] > states[:, :-1]).sum(axis=1)
    return fstates @ g1 + (1.0 - fstates) @ g0 + float(beta) * ups


def one_row_costs(states, cs, beta):
    """sp_cost of each row on its own, as one float array."""
    return np.array([sp_cost(Schedule(row), cs, beta) for row in states])


class TestBatchSpCosts:
    @pytest.mark.parametrize("runs,period", [(1, 1), (1, 7), (5, 1), (13, 40), (64, 300), (3, 5000), (0, 5)])
    def test_bit_identical_to_two_matrix_formula(self, runs, period):
        # Row i's cost is sp_cost of row i, bit for bit; the matrix products agree to 1e-9.
        rng = np.random.default_rng(runs * 1000 + period)
        for density in (0.0, 0.3, 0.9, 1.0):
            states = (rng.random((runs, period)) < density).astype(np.int8)
            cs = CostSeries(rng.normal(0.0, 50.0, period), rng.normal(0.0, 50.0, period))
            beta = float(rng.uniform(0.1, 10.0))
            snapshot = states.copy()
            got = batch_sp_costs(states, cs, beta)
            assert got.tobytes() == one_row_costs(states, cs, beta).tobytes()
            assert np.array_equal(states, snapshot) and states.dtype == np.int8
            np.testing.assert_allclose(got, two_matrix_sp_costs(states, cs, beta), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("beta", [0.0, 2.5])
    def test_signed_zero_costs_and_zero_fee(self, beta):
        # -0.0 costs total 0.0 as the fold from 0.0 gives it, with or without a fee
        states = np.array([[0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 1]], dtype=np.int8)
        for g0, g1 in (([-0.0] * 3, [-0.0] * 3), ([-0.0, 1.5, -0.0], [-2.0, -0.0, 3.0])):
            cs = CostSeries(g0, g1)
            got = batch_sp_costs(states, cs, beta)
            assert got.tobytes() == one_row_costs(states, cs, beta).tobytes()
        assert repr(float(batch_sp_costs(states[:1], CostSeries([-0.0] * 3, [-0.0] * 3), beta)[0])) == "0.0"

    @pytest.mark.parametrize("cells", [1, 17, 250, 1 << 16])
    def test_independent_of_the_block_size(self, monkeypatch, cells):
        # block settings of one row, of three (250 cells hold 3 rows of 2 x 40 cells) and the whole stack,
        # none of which the compiled fold reads: the floats stay those of sp_cost
        rng = np.random.default_rng(cells)
        states = (rng.random((37, 40)) < 0.4).astype(np.int8)
        cs = CostSeries(rng.normal(0.0, 50.0, 40), rng.normal(0.0, 50.0, 40))
        want = one_row_costs(states, cs, 3.0)
        monkeypatch.setattr(tariff, "BLOCK_CELLS", cells)
        assert batch_sp_costs(states, cs, 3.0).tobytes() == want.tobytes()

    def test_no_float_copy_of_the_matrix(self):
        # 40 x 50,000 states: one float64 copy would be 16 MB, a quarter of it 4 MB
        rng = np.random.default_rng(6)
        states = (rng.random((40, 50_000)) < 0.5).astype(np.int8)
        cs = random_cost_series(rng, 50_000)
        tracemalloc.start()
        try:
            batch_sp_costs(states, cs, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < states.size * 8 / 4

    @pytest.mark.parametrize("beta", [float("nan"), -1.0, float("inf")])
    def test_bad_beta_refused(self, beta):
        with pytest.raises(ValidationError, match="beta"):
            batch_sp_costs(np.zeros((2, 3), dtype=np.int8), random_cost_series(np.random.default_rng(0), 3), beta)

    @pytest.mark.parametrize("shape", [(2, 4), (3,), (1, 2, 3)])
    def test_state_matrix_of_wrong_shape_refused(self, shape):
        cs = random_cost_series(np.random.default_rng(0), 3)
        with pytest.raises(ValidationError, match="does not match series length 3"):
            batch_sp_costs(np.zeros(shape, dtype=np.int8), cs, 1.0)
        with pytest.raises(ValidationError, match="does not match series length 3"):
            dsp_costs(np.zeros(shape, dtype=np.int8), cs.g0, cs.g1, 1.0, 3)
