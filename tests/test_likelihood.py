"""Population likelihood tests: dense path, FFT path, analytic gradients."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import helpers
import oracles
from switchgp import kernels, likelihood
from switchgp.data import generate_synthetic
from switchgp.errors import InsufficientDataError, NonPositiveDefiniteError
from switchgp.fit import FitConfig, _Packing
from switchgp.gp_predict import window_nll
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.likelihood import negative_loglik, nll_and_gradients
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
)


def scalar_model(temporal_variance=1.3, noise_var=0.4, mean=0.7):
    emission = StateEmission(
        mean=np.array([mean]),
        temporal=MaternKernel(temporal_variance, 2.0, 1.5),
        task=TaskCovariance(np.eye(1)),
    )
    return SwitchingGPModel(
        durations=(GammaDuration(2.0, 1.0),),
        transitions=TransitionMatrix(np.zeros((1, 1))),
        emissions=(emission,),
        noise=NoiseModel(np.array([noise_var])),
        duration_cap=3,
    )


def labeled(observations, labels, mask=None, subject_id=0):
    return SegmentedSeries(
        observations=np.asarray(observations, float),
        labels=np.asarray(labels, int),
        mask=mask,
        subject_id=subject_id,
    )


class TestDensePath:
    def test_scalar_closed_form(self):
        model = scalar_model(temporal_variance=1.3, noise_var=0.4, mean=0.7)
        y = 2.1
        series = labeled([[y]], [1])
        v = 1.3 + 0.4
        r = y - 0.7
        expected = 0.5 * (math.log(v) + r * r / v + math.log(2 * math.pi))
        assert negative_loglik(model, [series]) == pytest.approx(expected, rel=1e-12)

    def test_zero_residuals_leave_logdet_terms_only(self):
        model = helpers.random_model(A=2, P=2, seed=4)
        labels = np.array([1, 1, 1, 2, 2, 1, 1])
        rows = np.array([model.emissions[lab - 1].mean for lab in labels])
        series = labeled(rows, labels)
        expected = 0.0
        for state, start, dur in oracles.run_lengths(labels):
            cov = oracles.segment_cov(model.emissions[state - 1], model.noise, dur)
            expected += 0.5 * (
                np.linalg.slogdet(cov)[1] + dur * 2 * math.log(2 * math.pi)
            )
        assert negative_loglik(model, [series]) == pytest.approx(expected, rel=1e-10)

    def test_matches_kron_oracle_with_masks(self):
        model = helpers.random_model(A=3, P=2, seed=6)
        rng = np.random.default_rng(0)
        labels = np.array([1, 1, 2, 2, 2, 3, 1, 1, 3, 3])
        obs = rng.normal(size=(10, 2))
        mask = rng.uniform(size=(10, 2)) < 0.7
        series = labeled(obs, labels, mask=mask)
        got = negative_loglik(model, [series])
        assert got == pytest.approx(oracles.dense_nll(model, [series]), rel=1e-10)

    def test_subject_permutation_invariance(self):
        model = helpers.random_model(A=2, P=2, seed=2)
        rng = np.random.default_rng(3)
        series = [
            labeled(rng.normal(size=(8, 2)), rng.integers(1, 3, size=8), subject_id=i)
            for i in range(4)
        ]
        base = negative_loglik(model, series)
        shuffled = negative_loglik(model, series[::-1])
        assert shuffled == pytest.approx(base, abs=1e-10)

    def test_segment_order_invariance(self):
        # the same multiset of (state, window) segments in a different order
        model = helpers.random_model(A=2, P=1, seed=9)
        rng = np.random.default_rng(1)
        w1, w2, w3 = rng.normal(size=(3, 2, 1))
        a = labeled(np.vstack([w1, w2, w3]), [1, 1, 2, 2, 1, 1])
        b = labeled(np.vstack([w3, w2, w1]), [1, 1, 2, 2, 1, 1])
        assert negative_loglik(model, [a]) == pytest.approx(
            negative_loglik(model, [b]), abs=1e-10
        )

    def test_duplicated_subject_doubles_contribution(self):
        model = helpers.random_model(A=2, P=2, seed=5)
        rng = np.random.default_rng(7)
        series = labeled(rng.normal(size=(9, 2)), rng.integers(1, 3, size=9))
        single = negative_loglik(model, [series])
        doubled = negative_loglik(model, [series, series])
        assert doubled == pytest.approx(2.0 * single, abs=1e-10)


class TestFFTPath:
    def test_close_to_dense_on_synthetic_segments(self):
        model = helpers.random_model(A=2, P=2, cap=40, seed=8, lengthscale=3.0)
        data = [generate_synthetic(model, 64, seed=1)]
        dense = negative_loglik(model, data, use_fft=False)
        fast = negative_loglik(model, data, use_fft=True)
        assert abs(fast - dense) / abs(dense) < 0.02

    def test_masked_data_rejected(self):
        model = helpers.random_model(A=1, P=1, seed=1)
        obs = np.zeros((4, 1))
        mask = np.array([[True], [False], [True], [True]])
        series = labeled(obs, [1, 1, 1, 1], mask=mask)
        with pytest.raises(InsufficientDataError):
            negative_loglik(model, [series], use_fft=True)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_out_of_range_label_rejected(self, bad):
        # same check as the dense path: label 0 must not wrap to state A,
        # and label A + 1 must not reach the emission list
        model = helpers.random_model(A=2, P=2, cap=6, seed=1)
        rng = np.random.default_rng(0)
        series = labeled(rng.normal(size=(6, 2)), [1, 1, bad, bad, 2, 2])
        for use_fft in (False, True):
            with pytest.raises(ValueError, match="outside 1..2"):
                negative_loglik(model, [series], use_fft=use_fft)


class TestGradients:
    @pytest.mark.parametrize("shared_task", [False, True])
    def test_analytic_gradient_matches_central_differences(self, shared_task):
        model = helpers.random_model(A=2, P=2, cap=6, seed=11)
        if shared_task:
            # one task factor for every state: the packing holds one block
            task = model.emissions[0].task
            emissions = tuple(replace(e, task=task) for e in model.emissions)
            model = replace(model, emissions=emissions, shared_task=True)
        rng = np.random.default_rng(4)
        labels = np.array([1, 1, 1, 2, 2, 1, 2, 2, 2, 1, 1, 2])
        series = labeled(rng.normal(size=(12, 2)), labels)
        packing = _Packing(model, FitConfig())
        # L[0,0] is gauged to 1, so pack the rescaled model
        model = packing.rescaled_init(model)
        x0 = packing.pack(model)

        def objective(x):
            return negative_loglik(packing.unpack(x, model), [series])

        _, acc = nll_and_gradients(model, [series])
        packing.set_L_cache(model)
        analytic = packing.pack_gradient(acc)
        fd = oracles.central_difference(objective, x0, eps=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-4

    def test_gradient_value_agrees_with_objective(self):
        model = helpers.random_model(A=2, P=2, seed=12)
        rng = np.random.default_rng(9)
        series = labeled(rng.normal(size=(10, 2)), rng.integers(1, 3, size=10))
        value, _ = nll_and_gradients(model, [series])
        assert value == pytest.approx(negative_loglik(model, [series]), rel=1e-12)

    def test_masked_entries_contribute_gradients(self):
        model = helpers.random_model(A=1, P=2, seed=13)
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(6, 2))
        mask = rng.uniform(size=(6, 2)) < 0.6
        series = labeled(obs, np.ones(6, int), mask=mask)
        packing = _Packing(model, FitConfig())
        # L[0,0] is gauged to 1, so pack the rescaled model
        model = packing.rescaled_init(model)
        x0 = packing.pack(model)

        def objective(x):
            return negative_loglik(packing.unpack(x, model), [series])

        _, acc = nll_and_gradients(model, [series])
        packing.set_L_cache(model)
        analytic = packing.pack_gradient(acc)
        fd = oracles.central_difference(objective, x0, eps=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-4


# (state, length, masked) blocks: state 1 holds fully observed segments of
# lengths 1, 2, 7, 7 and 13, with masked segments of both states between them.
PREFIX_BLOCKS = [
    (1, 7, False),
    (2, 3, True),
    (1, 1, False),
    (2, 4, False),
    (1, 13, False),
    (1, 5, True),
    (2, 6, False),
    (1, 2, False),
    (2, 2, True),
    (1, 7, False),
    (2, 4, False),
]


def prefix_series(P, seed):
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, state) for state, n, _ in PREFIX_BLOCKS])
    mask = np.ones((len(labels), P), dtype=bool)
    start = 0
    for _, n, masked in PREFIX_BLOCKS:
        if masked:
            mask[start : start + n] = rng.uniform(size=(n, P)) < 0.6
            mask[start, 0] = False  # at least one hole in the segment
        start += n
    return labeled(rng.normal(size=(len(labels), P)), labels, mask=mask)


def prefix_model(smoothness, shared_task, P=3, seed=21):
    model = helpers.random_model(A=2, P=P, cap=13, seed=seed)
    emissions = [
        replace(e, temporal=replace(e.temporal, smoothness=smoothness)) for e in model.emissions
    ]
    if shared_task:
        emissions = [replace(e, task=emissions[0].task) for e in emissions]
    return replace(model, emissions=tuple(emissions), shared_task=shared_task)


def entry_level_nll_and_gradients(model, data):
    """Sum of the entry-level masked-segment terms over every labeled segment,
    with an all-True mask on the fully observed ones."""
    total = 0.0
    temporal = np.zeros((model.num_states, 2))
    task = np.zeros((1 if model.shared_task else model.num_states,) + (model.num_features,) * 2)
    noise = np.zeros(model.num_features)
    for series in data:
        for state, start, dur in oracles.run_lengths(series.labels):
            j = state - 1
            val, grads = window_nll(
                model.emissions[j],
                model.noise,
                series.observations[start : start + dur],
                series.mask[start : start + dur],
                gradients=True,
            )
            total += val
            temporal[j] += grads["temporal"]
            task[0 if model.shared_task else j] += grads["task"]
            noise += grads["noise"]
    return total, temporal, task, noise


def assert_blocks_close(got, want, rel):
    value, acc = got
    assert abs(value - want[0]) <= rel * abs(want[0])
    for g, w in zip((acc.temporal, np.array(acc.task), acc.noise), want[1:]):
        assert np.max(np.abs(g - w)) <= rel * np.max(np.abs(w))


class TestPrefixFactors:
    """Every fully observed segment of a state reads its terms off one
    Cholesky factor per channel on the state's longest segment."""

    @pytest.mark.parametrize("smoothness", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("shared_task", [False, True])
    def test_matches_entry_level_oracle(self, smoothness, shared_task):
        model = prefix_model(smoothness, shared_task)
        data = [prefix_series(model.num_features, seed=3)]
        want = entry_level_nll_and_gradients(model, data)
        assert_blocks_close(nll_and_gradients(model, data), want, 1e-10)
        assert negative_loglik(model, data) == pytest.approx(want[0], rel=1e-10)

    def test_one_channel_chunks_agree_with_default(self, monkeypatch):
        model = prefix_model(1.5, False, P=4)
        data = [prefix_series(model.num_features, seed=5)]
        value, acc = nll_and_gradients(model, data)
        want = (value, acc.temporal, np.array(acc.task), acc.noise)
        dense = negative_loglik(model, data)
        monkeypatch.setattr(likelihood, "FACTOR_CHUNK_ELEMENTS", 1)
        assert_blocks_close(nll_and_gradients(model, data), want, 1e-12)
        assert negative_loglik(model, data) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("shared_task, factors", [(False, 2), (True, 1)])
    def test_one_channel_basis_per_task_factor(self, monkeypatch, shared_task, factors):
        model = prefix_model(1.5, shared_task)
        data = [prefix_series(model.num_features, seed=3)]
        calls = []
        basis = kernels.channel_basis

        def counted(*args):
            calls.append(args)
            return basis(*args)

        monkeypatch.setattr(kernels, "channel_basis", counted)
        nll_and_gradients(model, data)
        negative_loglik(model, data)
        assert len(calls) == 2 * factors

    def test_chunks_bound_the_working_memory(self, monkeypatch):
        # one 400-row segment of ten channels, one channel per chunk: the
        # working set is a few T x T arrays, not one per channel
        T, P = 400, 10
        model = prefix_model(1.5, False, P=P)
        rng = np.random.default_rng(11)
        data = [labeled(rng.normal(size=(T, P)), np.ones(T, dtype=int))]
        layout = likelihood.segment_layout(model, data)
        monkeypatch.setattr(likelihood, "FACTOR_CHUNK_ELEMENTS", T * T)
        calls = (lambda: nll_and_gradients(model, layout), lambda: negative_loglik(model, data))
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * T * T * np.dtype(float).itemsize  # eight T x T arrays

    @staticmethod
    def assert_failure_names_the_state(monkeypatch, routine, use_gradients):
        model = prefix_model(1.5, False)
        P = model.num_features
        data = [prefix_series(P, seed=7)]
        calls = []
        real = getattr(likelihood, routine)

        def failing(a, **kwargs):
            calls.append(a.shape)
            c, info = real(a, **kwargs)
            # the third channel of the second state fails
            return c, (1 if len(calls) == P + 3 else info)

        monkeypatch.setattr(likelihood, routine, failing)
        with pytest.raises(NonPositiveDefiniteError) as err:
            if use_gradients:
                nll_and_gradients(model, data)
            else:
                negative_loglik(model, data)
        assert err.value.state == 1
        assert len(calls) == P + 3

    @pytest.mark.parametrize("use_gradients", [False, True])
    def test_failed_factorization_names_the_state(self, monkeypatch, use_gradients):
        self.assert_failure_names_the_state(monkeypatch, "dpotrf", use_gradients)

    @pytest.mark.parametrize("use_gradients", [False, True])
    def test_failed_inversion_names_the_state(self, monkeypatch, use_gradients):
        self.assert_failure_names_the_state(monkeypatch, "dtrtri", use_gradients)

    @pytest.mark.parametrize("use_gradients", [False, True])
    def test_failed_masked_window_names_the_state(self, monkeypatch, use_gradients):
        # masked segments are scored in data order: states 2, 1 and 2
        model = prefix_model(1.5, False)
        data = [prefix_series(model.num_features, seed=7)]
        calls = []
        real = np.linalg.cholesky

        def failing(a):
            calls.append(a.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("not positive definite")
            return real(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        with pytest.raises(NonPositiveDefiniteError, match="for state 1") as err:
            if use_gradients:
                nll_and_gradients(model, data)
            else:
                negative_loglik(model, data)
        assert err.value.state == 0
        assert len(calls) == 2


class TestSegmentLayout:
    """The dense likelihood reads labeled data through one `segment_layout`,
    which a fit builds once for all its objective calls."""

    def test_layout_call_is_bitwise_the_raw_series_call(self):
        model = prefix_model(2.5, True)
        data = [prefix_series(model.num_features, seed=3)]
        value, acc = nll_and_gradients(model, data)
        got_value, got = nll_and_gradients(model, likelihood.segment_layout(model, data))
        assert got_value == value
        for block in ("temporal", "task", "noise"):
            np.testing.assert_array_equal(getattr(got, block), getattr(acc, block))

    def test_layout_for_other_means_is_refused(self):
        model = prefix_model(1.5, False)
        layout = likelihood.segment_layout(model, [prefix_series(model.num_features, seed=3)])
        moved = replace(model.emissions[1], mean=model.emissions[1].mean + 1.0)
        other = replace(model, emissions=(model.emissions[0], moved))
        with pytest.raises(ValueError, match="other emission means"):
            nll_and_gradients(other, layout)

    def test_fft_path_builds_no_dense_layout(self, monkeypatch):
        # the stacks, and with them the grid's Tmax x Tmax lag index, are
        # built on first dense use only
        model = prefix_model(1.5, False)
        data = [prefix_series(model.num_features, seed=3)]
        full = [replace(s, mask=np.ones_like(s.mask)) for s in data]

        layouts, build = [], likelihood.segment_layout

        def kept(model, data):
            layouts.append(build(model, data))
            return layouts[-1]

        def refused(resids):
            raise AssertionError("dense stacks built")

        monkeypatch.setattr(likelihood, "segment_layout", kept)
        monkeypatch.setattr(likelihood._StateSegments, "stack", staticmethod(refused))
        assert np.isfinite(negative_loglik(model, full, use_fft=True))
        assert len(layouts) == 1 and layouts[0].full and "stacks" not in vars(layouts[0])
        with pytest.raises(AssertionError, match="dense stacks built"):
            negative_loglik(model, full)
