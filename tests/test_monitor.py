"""Adaptive sensing: entropy, MC estimator, selection loss, closed loop."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from switchgp import monitor
from switchgp.filtering import (
    forward_init,
    forward_step,
    map_state,
    state_posterior,
    step_predictives,
)
from switchgp.model import GammaDuration
from switchgp.monitor import (
    GroupCatalog,
    adaptive_steps,
    default_catalog,
    entropy,
    expected_entropy_mc,
    posterior_samples,
    run_adaptive,
    select_group,
)
from switchgp.data import generate_synthetic


def run_filter(model, rows):
    state = forward_init(model, rows[0])
    for t in range(1, rows.shape[0]):
        state = forward_step(state, rows[t], model)
    return state


def frozen_state_model(cap=40, seed=0):
    """Two states with identical emissions, long durations, point-mass start.

    The posterior is deterministic and stays so: at d = 1 the duration mass
    is ~5e-10, so the hypothetical next-step posterior is a point mass up to
    that rebirth leak regardless of the sampled observation.
    """
    base = helpers.random_model(A=2, P=1, cap=cap, seed=seed)
    e = base.emissions[0]
    return replace(
        base,
        emissions=(e, e),
        durations=(GammaDuration(8.0, 4.0), GammaDuration(8.0, 4.0)),
        initial=np.array([1.0, 0.0]),
    )


class TestEntropy:
    def test_uniform_six(self):
        assert entropy(np.full(6, 1 / 6)) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_point_mass(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_half_half_with_zeros(self):
        assert entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_range_on_random_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            A = int(rng.integers(1, 7))
            p = rng.dirichlet(np.ones(A))
            h = entropy(p)
            assert 0.0 <= h <= math.log(A) + 1e-12

    def test_agrees_with_scipy_oracle(self):
        p = np.array([0.12, 0.4, 0.08, 0.4])
        assert entropy(p) == pytest.approx(oracles.shannon_entropy(p), abs=1e-12)


class TestExpectedEntropyMc:
    def test_deterministic_posterior_floor(self):
        model = frozen_state_model()
        state = forward_init(model, np.array([0.2]))
        np.testing.assert_allclose(state_posterior(state), [1.0, 0.0], atol=1e-12)
        est, se = expected_entropy_mc(state, model, (0,), num_samples=200, rng=1)
        assert est == pytest.approx(0.0, abs=1e-6)
        assert se == pytest.approx(0.0, abs=1e-9)

    def test_matches_quadrature_oracle(self):
        model = helpers.random_model(A=2, P=1, cap=3, seed=3)
        series = generate_synthetic(model, 3, seed=5)
        history = series.observations
        state = run_filter(model, history)
        est, se = expected_entropy_mc(state, model, (0,), num_samples=1000, rng=7)
        want = oracles.quad_expected_entropy(model, history, 0)
        assert abs(est - want) <= 3.0 * se

    def test_stderr_scales_as_inverse_sqrt_n(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=4)
        series = generate_synthetic(model, 4, seed=6)
        state = run_filter(model, series.observations)
        _, se_small = expected_entropy_mc(state, model, (0,), num_samples=1000, rng=1)
        _, se_large = expected_entropy_mc(state, model, (0,), num_samples=4000, rng=2)
        assert 0.4 <= se_large / se_small <= 0.6

    def test_deterministic_given_seed(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=5)
        series = generate_synthetic(model, 3, seed=7)
        state = run_filter(model, series.observations)
        a = expected_entropy_mc(state, model, (1,), num_samples=64, rng=11)
        b = expected_entropy_mc(state, model, (1,), num_samples=64, rng=11)
        assert a == b

    def test_requires_samples_or_rng(self):
        model = helpers.random_model(A=1, P=1, cap=2, seed=6)
        state = forward_init(model, np.zeros(1))
        with pytest.raises(ValueError):
            expected_entropy_mc(state, model, (0,), num_samples=8)

    @pytest.mark.parametrize("num_samples", [0, -3])
    def test_rejects_fewer_than_one_sample(self, num_samples):
        model = helpers.random_model(A=2, P=2, cap=3, seed=6)
        state = forward_init(model, np.zeros(2))
        catalog = GroupCatalog(((0,), (1,)), np.zeros(2))
        with pytest.raises(ValueError, match="num_samples"):
            expected_entropy_mc(state, model, (0,), num_samples=num_samples, rng=0)
        with pytest.raises(ValueError, match="num_samples"):
            posterior_samples(state, model, num_samples, 0)
        with pytest.raises(ValueError, match="num_samples"):
            select_group(state, model, catalog, num_samples=num_samples, rng=0)


class TestLoss:
    """The selection loss, expected entropy plus cost, as `select_group`
    reports it in ``record.losses``."""

    def test_zero_entropy_leaves_cost(self):
        model = frozen_state_model()
        state = forward_init(model, np.array([-0.1]))
        catalog = GroupCatalog(((0,),), np.array([0.37]))
        _, record = select_group(state, model, catalog, num_samples=100, rng=3)
        assert record.losses[0] == pytest.approx(0.37, abs=1e-6)

    def test_cost_free_loss_is_entropy_estimate(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=8)
        series = generate_synthetic(model, 3, seed=9)
        state = run_filter(model, series.observations)
        catalog = GroupCatalog(((0,), (1,)), np.zeros(2))
        _, record = select_group(state, model, catalog, num_samples=128, rng=5)
        samples = posterior_samples(state, model, 128, np.random.default_rng(5))
        for g, group in enumerate(catalog.groups):
            est, _ = expected_entropy_mc(state, model, group, samples=samples)
            assert record.losses[g] == est

    def test_duplicated_group_differs_by_cost_exactly(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=9)
        series = generate_synthetic(model, 4, seed=10)
        state = run_filter(model, series.observations)
        catalog = GroupCatalog(((0, 1), (0, 1)), np.array([0.1, 0.9]))
        _, record = select_group(state, model, catalog, num_samples=64, rng=2)
        assert record.losses[1] - record.losses[0] == pytest.approx(0.8, abs=1e-12)

    def test_unknown_group_rejected(self):
        # a group naming a feature the model lacks is an error, not a
        # silently wrapped or raw index
        model = helpers.random_model(A=1, P=2, cap=2, seed=10)
        state = forward_init(model, np.zeros(2))
        catalog = GroupCatalog(((0, 2),), np.zeros(1))
        with pytest.raises(ValueError, match="out of range"):
            select_group(state, model, catalog, num_samples=8, rng=0)


class TestSelectGroup:
    def test_singleton_catalog_always_chosen(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=11)
        series = generate_synthetic(model, 3, seed=11)
        state = run_filter(model, series.observations)
        catalog = GroupCatalog(((0, 1),), np.zeros(1))
        group, record = select_group(state, model, catalog, num_samples=32, rng=0)
        assert group == (0, 1)
        assert record.group == (0, 1)

    def test_cheaper_duplicate_wins(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=12)
        series = generate_synthetic(model, 3, seed=12)
        state = run_filter(model, series.observations)
        catalog = GroupCatalog(((0, 1), (0, 1)), np.array([0.9, 0.1]))
        group, record = select_group(state, model, catalog, num_samples=32, rng=1)
        assert group == (0, 1)
        assert record.cost == 0.1
        # shared samples make the duplicate's entropy identical: exactly cost-ordered
        assert record.losses[1] - record.losses[0] == pytest.approx(-0.8, abs=1e-12)

    def test_record_attains_minimum_loss(self):
        model = helpers.random_model(A=3, P=3, cap=3, seed=13)
        series = generate_synthetic(model, 4, seed=13)
        state = run_filter(model, series.observations)
        catalog = GroupCatalog(((0,), (1,), (2,), (0, 2)), np.array([0.0, 0.1, 0.2, 0.3]))
        group, record = select_group(state, model, catalog, num_samples=32, rng=2)
        best = record.losses.min()
        assert record.expected_entropy + record.cost == pytest.approx(best, abs=1e-12)
        assert group in catalog.groups

    def test_ties_break_to_smaller_then_lexicographic(self):
        # single state: every hypothetical posterior is [1.0], entropy exactly
        # zero, so equal costs tie exactly and only the tie rule decides
        model = helpers.random_model(A=1, P=3, cap=3, seed=14)
        state = forward_init(model, np.zeros(3))
        catalog = GroupCatalog(((1, 2), (2,), (1,), (0, 1)), np.zeros(4))
        group, record = select_group(state, model, catalog, num_samples=16, rng=3)
        assert group == (1,)
        np.testing.assert_array_equal(record.losses, np.zeros(4))

    def test_invariant_loss_bounds(self):
        model = helpers.random_model(A=3, P=2, cap=3, seed=15)
        series = generate_synthetic(model, 4, seed=15)
        state = run_filter(model, series.observations)
        catalog = GroupCatalog(((0,), (1,), (0, 1)), np.array([0.2, 0.3, 0.5]))
        _, record = select_group(state, model, catalog, num_samples=64, rng=4)
        for g in range(len(catalog)):
            lam = catalog.costs[g]
            assert record.losses[g] >= lam - 1e-12
            assert record.losses[g] <= lam + math.log(3) + 1e-12


def oracle_losses(pred, catalog, samples):
    """Losses of every group, each scored on its own over every predictive
    entry, pruned or not."""
    ents = []
    for group in catalog.groups:
        idx = np.array(group)
        table = oracles.advance_table(pred, samples[:, idx], idx)  # (N, A, D)
        state_log = scipy.special.logsumexp(table, axis=2)
        post = np.exp(state_log - scipy.special.logsumexp(state_log, axis=1, keepdims=True))
        ents.append(np.mean([oracles.shannon_entropy(p) for p in post]))
    return np.array(ents) + catalog.costs


# sizes in shuffled order, (1, 3) twice
MIXED_GROUPS = ((1, 3), (0, 1, 2), (2,), (0, 3), (1, 2, 3), (0,), (1, 3), (0, 1, 2, 3), (3,))


class TestBatchedScoring:
    """`select_group` scores each group size in one batched pass over the
    live (pruned) entries; these pin it to per-group, unpruned scoring."""

    @staticmethod
    def setting(seed, T=12, shift=0.0):
        model = helpers.random_model(A=3, P=4, cap=6, seed=seed)
        emissions = tuple(replace(e, mean=e.mean + shift) for e in model.emissions)
        model = replace(model, emissions=emissions)
        state = run_filter(model, generate_synthetic(model, T, seed=seed).observations)
        return model, state, step_predictives(state, model)

    # shift moves every emission mean, and so the data, far from the origin;
    # a scorer that did not center samples and means first would lose the
    # 1e-10 to cancellation between its quadratic terms
    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_select_group_matches_the_unpruned_oracle(self, shift):
        pruned = 0
        for seed in (31, 32, 33):
            model, state, pred = self.setting(seed, shift=shift)
            logw = np.concatenate([pred.fresh_logw, pred.cont_logw.ravel()])
            pruned += np.isfinite(logw).sum() - pred.live.log_weights.size
            costs = np.array([0.05 * len(g) for g in MIXED_GROUPS])
            catalog = GroupCatalog(MIXED_GROUPS, costs)
            group, record = select_group(
                state, model, catalog, num_samples=40, rng=seed, pred=pred
            )
            samples = posterior_samples(state, model, 40, seed, pred=pred)
            want = oracle_losses(pred, catalog, samples)
            np.testing.assert_allclose(record.losses, want, rtol=0, atol=1e-10)
            best = min(
                range(len(catalog)),
                key=lambda g: (want[g], len(catalog.groups[g]), catalog.groups[g]),
            )
            assert group == catalog.groups[best]
            assert record.losses[0] == record.losses[6]  # the duplicate
        assert pruned > 0  # at least one setting leaves entries out

    @pytest.mark.parametrize("num_samples", [1, 2, 64])
    def test_chunking_leaves_losses_bitwise_unchanged(self, monkeypatch, num_samples):
        model, state, pred = self.setting(33)
        catalog = default_catalog(4, sizes=(1, 2, 3, 4))
        _, default = select_group(state, model, catalog, num_samples=num_samples, rng=4, pred=pred)
        monkeypatch.setattr(monitor, "SCORE_CHUNK_ELEMENTS", 1)
        _, one_at_a_time = select_group(
            state, model, catalog, num_samples=num_samples, rng=4, pred=pred
        )
        np.testing.assert_array_equal(one_at_a_time.losses, default.losses)
        assert one_at_a_time.stderr == default.stderr

    def test_stack_equals_single_group_calls(self):
        model, state, pred = self.setting(32)
        samples = posterior_samples(state, model, 48, 6, pred=pred)
        stack = [(0, 1), (2, 3), (1, 3), (0, 2), (1, 3)]
        est, err = expected_entropy_mc(state, model, stack, samples=samples, pred=pred)
        assert est.shape == err.shape == (5,)
        for g, group in enumerate(stack):
            one = expected_entropy_mc(state, model, group, samples=samples, pred=pred)
            assert isinstance(one[0], float) and isinstance(one[1], float)
            assert (est[g], err[g]) == one

    def test_stack_of_mixed_sizes_rejected(self):
        model, state, pred = self.setting(31)
        with pytest.raises(ValueError, match="one size"):
            expected_entropy_mc(state, model, [(0, 1), (2,)], num_samples=8, rng=0, pred=pred)

    @pytest.mark.parametrize("group", [(), (0, 4), (-1,)])
    def test_groups_outside_the_features_rejected(self, group):
        model, state, pred = self.setting(31)
        with pytest.raises(ValueError, match="group"):
            expected_entropy_mc(state, model, group, num_samples=8, rng=0, pred=pred)

    def test_select_group_calls_the_scorer_once_per_size(self, monkeypatch):
        model, state, pred = self.setting(32)
        calls = []
        scorer = monitor.expected_entropy_mc

        def counted(*args, **kwargs):
            calls.append(args[2])
            return scorer(*args, **kwargs)

        monkeypatch.setattr(monitor, "expected_entropy_mc", counted)
        catalog = GroupCatalog(MIXED_GROUPS, np.zeros(len(MIXED_GROUPS)))
        select_group(state, model, catalog, num_samples=8, rng=0, pred=pred)
        assert sorted(len(c[0]) for c in calls) == [1, 2, 3, 4]


@functools.lru_cache(maxsize=None)
def bounded_setting(num_states, seed):
    """A filtered state on a 4-feature model and its predictives; with one
    state every hypothetical posterior is [1.0], so every entropy is 0."""
    model = helpers.random_model(A=num_states, P=4, cap=5, seed=seed)
    state = run_filter(model, generate_synthetic(model, 8, seed=seed).observations)
    return model, state, step_predictives(state, model)


def exhaustive_selection(state, model, catalog, samples, pred):
    """Every group scored on ``samples``; the best by (loss, tie rank)."""
    ents = np.empty(len(catalog))
    errs = np.empty(len(catalog))
    for rows, stack in catalog.stacks:
        ents[rows], errs[rows] = expected_entropy_mc(
            state, model, stack, samples=samples, pred=pred
        )
    losses = ents + catalog.costs
    best = int(np.lexsort((catalog.tie_rank, losses))[0])
    return best, ents, errs, losses


def assert_bounds_hold(catalog, record):
    """Every unscored group's loss is its cost, and that cost cannot beat the
    chosen loss: it is larger, or equal with the group after the chosen one
    in the tie order."""
    best = next(
        g
        for g in np.flatnonzero(record.scored)
        if catalog.groups[g] == record.group and catalog.costs[g] == record.cost
    )
    chosen = record.losses[best]
    skipped = np.flatnonzero(~record.scored)
    np.testing.assert_array_equal(record.losses[skipped], catalog.costs[skipped])
    for g in skipped:
        assert catalog.costs[g] >= chosen
        if catalog.costs[g] == chosen:
            assert catalog.tie_rank[g] > catalog.tie_rank[best]


class TestBoundedSelection:
    """`select_group` leaves out the groups whose cost alone rules them out;
    what it does score, and what it picks, is bitwise the exhaustive
    scorer's."""

    def test_a_size_that_cannot_win_is_never_scored(self, monkeypatch):
        # an entropy over three states is at most log 3 < 2, so no pair at
        # cost 2 can beat a single feature at cost 0
        model, state, pred = bounded_setting(3, 41)
        calls = []
        scorer = monitor.expected_entropy_mc

        def counted(*args, **kwargs):
            calls.append(args[2])
            return scorer(*args, **kwargs)

        monkeypatch.setattr(monitor, "expected_entropy_mc", counted)
        groups = ((0, 1), (0,), (2, 3), (1,), (3,))
        catalog = GroupCatalog(groups, np.array([2.0, 0.0, 2.0, 0.0, 0.0]))
        group, record = select_group(state, model, catalog, num_samples=16, rng=0, pred=pred)
        assert [len(c[0]) for c in calls] == [1]
        np.testing.assert_array_equal(record.scored, [False, True, False, True, True])
        assert len(group) == 1
        assert_bounds_hold(catalog, record)

    def test_groups_costlier_than_the_best_loss_are_skipped_within_a_size(self):
        model, state, pred = bounded_setting(3, 42)
        groups = ((0,), (1,), (0, 1), (2, 3))
        catalog = GroupCatalog(groups, np.array([0.0, 0.5, 0.0, 5.0]))
        _, record = select_group(state, model, catalog, num_samples=16, rng=1, pred=pred)
        np.testing.assert_array_equal(record.scored, [True, True, True, False])
        assert_bounds_hold(catalog, record)

    def test_unscored_groups_keep_their_cost_as_loss(self):
        # single state: entropy exactly 0, so a group costing the best loss
        # ties it and only the tie order decides whether it is scored
        model, state, pred = bounded_setting(1, 43)
        groups = ((0, 1), (2,), (0,), (1, 2, 3), (1,), (0, 1))
        catalog = GroupCatalog(groups, np.array([0.1, 0.1, 0.1, 0.1, 0.3, 0.0]))
        group, record = select_group(state, model, catalog, num_samples=8, rng=2, pred=pred)
        assert group == (0, 1) and record.cost == 0.0
        # the pairs stack (cost 0) comes first; every other group costs more
        np.testing.assert_array_equal(record.scored, [True, False, False, False, False, True])
        assert_bounds_hold(catalog, record)
        ties = GroupCatalog(groups, np.array([0.1, 0.1, 0.1, 0.1, 0.3, 0.1]))
        group, record = select_group(state, model, ties, num_samples=8, rng=2, pred=pred)
        # (0,) and (2,) tie the best pair's loss and rank before it: scored
        assert group == (0,)
        np.testing.assert_array_equal(record.scored, [True, True, True, False, False, True])
        assert_bounds_hold(ties, record)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        num_states=st.sampled_from([1, 1, 2, 3]),
        seed=st.integers(0, 3),
        entries=st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True).map(tuple),
                st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5]), st.floats(0.0, 2.0)),
            ),
            min_size=1,
            max_size=10,
        ),
        duplicates=st.integers(0, 3),
        num_samples=st.sampled_from([1, 5, 16]),
    )
    def test_matches_the_exhaustive_scorer(
        self, num_states, seed, entries, duplicates, num_samples
    ):
        model, state, pred = bounded_setting(num_states, seed)
        entries = entries + entries[:duplicates]
        catalog = GroupCatalog(tuple(g for g, _ in entries), np.array([c for _, c in entries]))
        group, record = select_group(
            state, model, catalog, num_samples=num_samples, rng=seed, pred=pred
        )
        samples = posterior_samples(state, model, num_samples, seed, pred=pred)
        best, ents, errs, losses = exhaustive_selection(state, model, catalog, samples, pred)
        assert group == catalog.groups[best]
        assert record.expected_entropy == ents[best]
        assert record.stderr == errs[best]
        assert record.cost == catalog.costs[best]
        assert record.scored[best]
        np.testing.assert_array_equal(record.losses[record.scored], losses[record.scored])
        assert int(np.lexsort((catalog.tie_rank, record.losses))[0]) == best
        assert_bounds_hold(catalog, record)


class TestCatalog:
    def test_default_catalog_count_and_costs(self):
        cat = default_catalog(10)
        assert len(cat) == 331  # C(10,4) + C(10,7) + C(10,10)
        sizes = {len(g) for g in cat.groups}
        assert sizes == {4, 7, 10}
        for g, c in zip(cat.groups, cat.costs):
            assert c == pytest.approx(len(g) / 10.0, abs=1e-12)
        assert len(set(cat.groups)) == len(cat.groups)

    def test_default_catalog_scales_with_energy_weight(self):
        cat = default_catalog(5, sizes=(2, 5)).scaled(0.4)
        for g, c in zip(cat.groups, cat.costs):
            assert c == pytest.approx(0.4 * len(g) / 5.0, abs=1e-12)

    def test_default_catalog_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            default_catalog(3, sizes=(0, 2))
        with pytest.raises(ValueError):
            default_catalog(3, sizes=(4,))

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupCatalog((), np.zeros(0))
        with pytest.raises(ValueError):
            GroupCatalog(((),), np.zeros(1))
        with pytest.raises(ValueError):
            GroupCatalog(((0, 0),), np.zeros(1))
        with pytest.raises(ValueError):
            GroupCatalog(((0,),), np.array([-0.1]))
        with pytest.raises(ValueError):
            GroupCatalog(((0,), (1,)), np.zeros(3))

    @pytest.mark.parametrize("cost", [np.nan, np.inf])
    def test_rejects_non_finite_costs(self, cost):
        # a NaN cost makes every loss NaN and the choice arbitrary
        with pytest.raises(ValueError, match="finite"):
            GroupCatalog(((0,), (1,)), np.array([0.5, cost]))
        with pytest.raises(ValueError, match="finite"):
            GroupCatalog(((0,), (1,)), np.array([0.5, 1.0])).scaled(cost)

    def test_rejects_negative_features(self):
        # numpy would read -1 as the last feature and score it twice
        with pytest.raises(ValueError, match="non-negative"):
            GroupCatalog(((-1,), (2,)), np.zeros(2))

    def test_duplicate_groups_allowed(self):
        cat = GroupCatalog(((0,), (0,)), np.array([0.1, 0.2]))
        assert len(cat) == 2

    def test_scaled_multiplies_costs(self):
        cat = GroupCatalog(((0,), (1,)), np.array([0.5, 1.0]))
        np.testing.assert_allclose(cat.scaled(0.2).costs, [0.1, 0.2])
        assert cat.scaled(0.0).costs.sum() == 0.0


class TestRunAdaptive:
    def test_free_full_catalog_reduces_to_plain_filter(self):
        model = helpers.separated_model(P=2, gap=5.0, cap=15)
        series = generate_synthetic(model, 40, seed=20)
        rows, labels = series.observations, series.labels
        catalog = GroupCatalog(((0, 1),), np.zeros(1))
        result = run_adaptive(model, rows, catalog, labels=labels, num_samples=8, rng=0)

        state = forward_init(model, rows[0])
        correct = int(map_state(state) == labels[0])
        for t in range(1, 40):
            state = forward_step(state, rows[t], model)
            correct += int(map_state(state) == labels[t])
        assert result.summary["avg_sensor_usage"] == 1.0
        assert result.summary["accuracy"] == correct / 40
        assert result.summary["log_evidence"] == pytest.approx(
            state.log_evidence, abs=1e-9
        )
        assert result.summary["num_steps"] == 40
        assert len(result.records) == 39  # first row initializes, no selection

    def test_observes_only_entries_the_mask_allows(self):
        model = helpers.separated_model(P=2, gap=5.0, cap=15)
        series = generate_synthetic(model, 30, seed=25)
        rows = series.observations.copy()
        mask = np.ones(rows.shape, dtype=bool)
        mask[[6, 7, 8], 1] = False
        mask[12] = False
        rows[~mask] = np.nan
        catalog = GroupCatalog(((0, 1),), np.zeros(1))
        result = run_adaptive(model, rows, catalog, num_samples=8, rng=0, mask=mask)

        state = forward_init(model, rows[0])
        for t in range(1, 30):
            state = forward_step(state, rows[t], model, mask[t])
        assert result.summary["log_evidence"] == pytest.approx(state.log_evidence, abs=1e-9)

    def test_energy_scale_reduces_usage(self):
        model = helpers.random_model(A=2, P=2, cap=4, seed=21)
        series = generate_synthetic(model, 30, seed=21)
        catalog = GroupCatalog(
            ((0,), (1,), (0, 1)), np.array([0.5, 0.5, 1.0])
        )
        free = run_adaptive(
            model, series.observations, catalog, energy_scale=0.0, num_samples=32, rng=1
        )
        costly = run_adaptive(
            model, series.observations, catalog, energy_scale=1.0, num_samples=32, rng=1
        )
        assert costly.summary["avg_sensor_usage"] <= free.summary["avg_sensor_usage"]

    def test_informative_feature_dominates_usage(self):
        # only feature 0 separates the states; at moderate cost it should be
        # observed at least as often as the uninformative feature
        model = helpers.separated_model(P=2, gap=6.0, cap=15)
        e1, e2 = model.emissions
        e2 = replace(e2, mean=np.array([e2.mean[0], e1.mean[1]]))
        model = replace(model, emissions=(e1, e2))
        series = generate_synthetic(model, 40, seed=22)
        catalog = GroupCatalog(((0,), (1,)), np.array([0.05, 0.05]))
        result = run_adaptive(
            model, series.observations, catalog, num_samples=48, rng=3
        )
        count0 = sum(1 for r in result.records if 0 in r.selection.group)
        count1 = sum(1 for r in result.records if 1 in r.selection.group)
        assert count0 >= count1

    def test_bitwise_deterministic_decisions(self):
        model = helpers.random_model(A=2, P=3, cap=3, seed=23)
        series = generate_synthetic(model, 20, seed=23)
        catalog = GroupCatalog(((0,), (1, 2), (0, 1, 2)), np.array([0.1, 0.2, 0.3]))
        a = run_adaptive(model, series.observations, catalog, num_samples=24, rng=9)
        b = run_adaptive(model, series.observations, catalog, num_samples=24, rng=9)
        for ra, rb in zip(a.records, b.records):
            assert ra.selection.group == rb.selection.group
            assert np.array_equal(ra.selection.losses, rb.selection.losses)
            assert ra.map_state == rb.map_state
        for key in ("avg_sensor_usage", "avg_entropy", "log_evidence"):
            assert a.summary[key] == b.summary[key]

    def test_rejects_features_beyond_the_model(self):
        model = helpers.random_model(A=2, P=3, cap=3, seed=24)
        series = generate_synthetic(model, 5, seed=24)
        catalog = GroupCatalog(((0,), (5,)), np.zeros(2))
        with pytest.raises(ValueError, match="out of range"):
            run_adaptive(model, series.observations, catalog, num_samples=8)
        # caught before the first row, even when no row is ever selected for
        with pytest.raises(ValueError, match="out of range"):
            run_adaptive(model, series.observations[:1], catalog, num_samples=8)

    def test_rejects_an_empty_series(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=24)
        catalog = GroupCatalog(((0, 1),), np.zeros(1))
        with pytest.raises(ValueError, match="at least one row"):
            run_adaptive(model, np.zeros((0, 2)), catalog, labels=np.zeros(0), num_samples=8)

    def test_rejects_fewer_than_one_sample(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=24)
        series = generate_synthetic(model, 5, seed=24)
        catalog = GroupCatalog(((0,), (1,)), np.zeros(2))
        with pytest.raises(ValueError, match="num_samples"):
            run_adaptive(model, series.observations, catalog, num_samples=0)

    def test_rejects_observations_of_another_width(self):
        model = helpers.random_model(A=2, P=3, cap=3, seed=24)
        catalog = GroupCatalog(((0,),), np.zeros(1))
        with pytest.raises(ValueError, match="features"):
            run_adaptive(model, np.zeros((4, 2)), catalog, num_samples=8)

    def test_streams_one_record_per_row(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=25)
        series = generate_synthetic(model, 12, seed=25)
        catalog = GroupCatalog(((0,), (1,), (0, 1)), np.array([0.1, 0.1, 0.3]))
        steps = list(adaptive_steps(model, series.observations, catalog, num_samples=8, rng=2))
        assert len(steps) == 12
        assert steps[0].selection is None
        assert steps[0].log_evidence_delta == steps[0].log_evidence
        assert [s.selection.time_index for s in steps[1:]] == list(range(2, 13))
        for prev, rec in zip(steps, steps[1:]):
            assert rec.log_evidence_delta == rec.log_evidence - prev.log_evidence

        result = run_adaptive(model, series.observations, catalog, num_samples=8, rng=2)
        assert [r.selection.group for r in result.records] == [
            s.selection.group for s in steps[1:]
        ]
        assert result.summary["log_evidence"] == steps[-1].log_evidence

    def test_label_length_mismatch_rejected(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=24)
        series = generate_synthetic(model, 10, seed=24)
        catalog = GroupCatalog(((0, 1),), np.zeros(1))
        with pytest.raises(ValueError):
            run_adaptive(
                model,
                series.observations,
                catalog,
                labels=np.ones(7, dtype=int),
                num_samples=8,
            )


class TestAdaptiveSummary:
    def runs(self):
        model = helpers.random_model(A=2, P=3, cap=4, seed=26)
        catalog = GroupCatalog(((0,), (1, 2), (0, 1, 2)), np.array([0.1, 0.2, 0.3]))
        out = []
        for seed, T in ((26, 9), (27, 6)):
            series = generate_synthetic(model, T, seed=seed)
            steps = list(
                adaptive_steps(model, series.observations, catalog, num_samples=8, rng=seed)
            )
            out.append((steps, series.labels))
        return out

    def test_pools_runs_fed_one_after_another(self):
        (a, labels_a), (b, _) = self.runs()
        fold = monitor.AdaptiveSummary(3)
        assert list(fold.feed(a, labels_a)) == a
        assert list(fold.feed(b)) == b
        summary = fold.summary(runtime_s=1.5)
        assert list(summary) == [
            "num_steps",
            "avg_sensor_usage",
            "avg_entropy",
            "log_evidence",
            "runtime_s",
            "accuracy",
        ]
        selected = [len(r.selection.group) / 3 for r in a[1:] + b[1:]]
        assert summary["num_steps"] == 15
        assert summary["avg_sensor_usage"] == pytest.approx(np.mean(selected), rel=1e-15)
        assert summary["avg_entropy"] == pytest.approx(
            np.mean([r.realized_entropy for r in a + b]), rel=1e-15
        )
        assert summary["log_evidence"] == a[-1].log_evidence + b[-1].log_evidence
        assert summary["runtime_s"] == 1.5
        # the unlabeled run adds no row to the accuracy
        hits = sum(int(r.map_state == lab) for r, lab in zip(a, labels_a))
        assert summary["accuracy"] == hits / 9

    def test_one_run_keeps_its_own_totals(self):
        (a, _), _ = self.runs()
        fold = monitor.AdaptiveSummary(3)
        for _ in fold.feed(a):
            pass
        summary = fold.summary(0.0)
        assert summary["log_evidence"] == a[-1].log_evidence
        assert "accuracy" not in summary

    def test_empty(self):
        summary = monitor.AdaptiveSummary(3).summary(0.0)
        assert summary["num_steps"] == 0
        assert summary["avg_sensor_usage"] == 0.0
        assert math.isnan(summary["avg_entropy"])
        assert summary["log_evidence"] == 0.0
        assert "accuracy" not in summary
