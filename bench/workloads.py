"""The four workloads: what one operation is, its inputs, and its checks.

Every workload calls the program through module attributes
(``filtering.forward_step``, not a name imported into this file), so the
traced run's wrappers see the calls. ``setup`` may run several times; the
last run's state is kept. ``check`` runs after the timed loop and returns a
list of failure messages.
"""

from __future__ import annotations

import numpy as np

import harmodel as H
import reference as R
from switchgp import filtering, likelihood, monitor
from switchgp import model as model_mod
from switchgp.fit import FitConfig
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
)

NUM_SAMPLES = 50  # Monte Carlo rows per monitor step
NEAR_NATS = 30.0  # "near" hypotheses lie within this many nats of the best
EXACT_TOL = 1e-8  # relative agreement with the exact references


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _median_ms(values) -> float:
    return 1e3 * float(np.median(values)) if values else 0.0


class Workload:
    layers: tuple = ()  # (module, attribute, span name) wrapped by the traced run

    def __init__(self, seed: int):
        self.seed = seed
        self.checked = {}  # figures the checks measured, for the info line

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One-time set-up after `setup`, counted in setup_s once."""

    def next_input(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def observe(self, i: int, inp, out) -> None:
        """Untimed bookkeeping after a successful op."""

    def check(self) -> list:
        raise NotImplementedError

    def layer_metrics(self, tracer, ops: list, op_secs: dict) -> dict:
        raise NotImplementedError

    def probe(self) -> None:
        """Untimed calls, in the traced run, that reach wrappers the ops
        leave silent on these inputs."""

    def info(self) -> dict:
        return self.checked


def _span_ms(tracer, name, ops) -> float:
    """Median over ``ops`` of the milliseconds spent in ``name`` per op."""
    return _median_ms([s for s, _ in tracer.per_op(name, ops)])


def _span_calls(tracer, name, ops) -> float:
    """Mean calls of ``name`` per op."""
    return float(np.mean([c for _, c in tracer.per_op(name, ops)]))


def _live_near(state) -> tuple:
    la = state.log_alpha
    live = np.isfinite(la)
    return int(live.sum()), int(np.sum(la[live] >= la.max() - NEAR_NATS))


def _entry_metrics(entries: dict, ops) -> dict:
    return {
        "filtering.live_entries": float(np.mean([entries[i][0] for i in ops])),
        "filtering.near_entries": float(np.mean([entries[i][1] for i in ops])),
    }


class Recognize(Workload):
    """Stream fully observed rows through the Kalman filter from forward_init."""

    layers = (
        ("switchgp.statespace", "predict", "statespace.predict"),
        ("switchgp.statespace", "observation_conditionals", "statespace.observation_conditionals"),
        ("switchgp.statespace", "update", "statespace.update"),
        ("switchgp.filtering", "step_predictives", "filtering.step_predictives"),
        ("switchgp.filtering", "apply_row", "filtering.apply_row"),
    )
    CHECK_ROWS = (30, 85)
    ACCURACY_FLOOR = 0.98

    def setup(self):
        self.params = H.model_params(self.seed)
        self.model = H.build_model(self.params)
        self.stream = H.Stream(self.params, H.rng_for(self.seed, "recognize"))
        self.state = filtering.forward_init(self.model, self.stream.row(0))
        post = filtering.state_posterior(self.state)
        self.hits = int(np.argmax(post) + 1 == self.stream.labels[0])
        self.rows = 1
        self.evidence4 = None
        self.snapshots = {}
        self.entries = {}
        self.last = (0, self.state)

    def next_input(self, i):
        t = i + 1
        return t, self.stream.row(t)

    def op(self, inp):
        self.state = filtering.forward_step(self.state, inp[1], self.model)
        return filtering.state_posterior(self.state)

    def observe(self, i, inp, post):
        t = inp[0]
        self.hits += int(np.argmax(post) + 1 == self.stream.labels[t])
        self.rows += 1
        if t == 3:
            self.evidence4 = self.state.log_evidence
        if t in self.CHECK_ROWS:
            self.snapshots[t] = self.state
        self.entries[i] = _live_near(self.state)
        self.last = (t, self.state)

    def check(self):
        fails = []
        if self.evidence4 is None:
            fails.append("recognize: the run ended before row 4")
        else:
            want = R.enumerate_log_evidence(self.params, self.stream.rows[:4])
            if abs(self.evidence4 - want) > EXACT_TOL:
                fails.append(f"recognize: log evidence of rows 1-4 {self.evidence4!r} != {want!r}")
        snaps = dict(self.snapshots)
        snaps[self.last[0]] = self.last[1]
        worst = 0.0
        for t, state in snaps.items():
            pred = filtering.step_predictives(state, self.model)
            live = np.argwhere(np.isfinite(pred.cont_logw))
            weights = pred.cont_logw[live[:, 0], live[:, 1]]
            picks = list(live[np.argsort(weights)[-3:]]) + [live[np.argmax(live[:, 1])]]
            for j, di in picks:
                window = self.stream.rows[t - di : t + 1]
                mean, cov = R.conditional_next_row(self.params, j, window)
                worst = max(worst, _rel(pred.cont_mean[j, di], mean), _rel(pred.cont_cov[j, di], cov))
        if worst > EXACT_TOL:
            fails.append(f"recognize: predictive vs dense conditioning differ by {worst:.2e}")
        acc = self.hits / self.rows
        if acc < self.ACCURACY_FLOOR:
            fails.append(f"recognize: MAP accuracy {acc:.4f} < {self.ACCURACY_FLOOR}")
        self.checked = {"accuracy": acc, "predictive_rel_err": worst}
        return fails

    def layer_metrics(self, tracer, ops, op_secs):
        out = {f"{name}.ms": _span_ms(tracer, name, ops) for _, _, name in self.layers}
        out["statespace.update.calls"] = _span_calls(tracer, "statespace.update", ops)
        return {**out, **_entry_metrics(self.entries, ops)}


class Monitor(Workload):
    """Adaptive sensing steps in steady state, after a warm-up of D full rows."""

    layers = (
        ("switchgp.monitor", "select_group", "monitor.select_group"),
        ("switchgp.monitor", "posterior_samples", "monitor.posterior_samples"),
        ("switchgp.monitor", "expected_entropy_mc", "monitor.expected_entropy_mc"),
        ("switchgp.filtering", "step_predictives", "filtering.step_predictives"),
        ("switchgp.filtering", "apply_row", "filtering.apply_row"),
    )

    def setup(self):
        self.params = H.model_params(self.seed)
        self.model = H.build_model(self.params)
        self.stream = H.Stream(self.params, H.rng_for(self.seed, "monitor"))
        self.catalog = monitor.default_catalog(H.NUM_CHANNELS)
        self.state = filtering.forward_init(self.model, self.stream.row(0))
        self.rng = H.rng_for(self.seed, "monitor-mc")
        self.records = []
        self.entries = {}
        self.first = None

    def warm_up(self):
        for t in range(1, H.DURATION_CAP + 1):
            self.state = filtering.forward_step(self.state, self.stream.row(t), self.model)
        self.warm_entries = _live_near(self.state)

    def next_input(self, i):
        t = H.DURATION_CAP + 1 + i
        return t, self.stream.row(t)

    def op(self, inp):
        state = self.state
        pred = filtering.step_predictives(state, self.model)
        group, record = monitor.select_group(
            state, self.model, self.catalog, num_samples=NUM_SAMPLES, rng=self.rng, pred=pred
        )
        mask = np.zeros(H.NUM_CHANNELS, dtype=bool)
        mask[list(group)] = True
        self.state = filtering.apply_row(state, self.model, pred, inp[1], mask)
        filtering.state_posterior(self.state)  # run_adaptive reads it every step
        return state, pred, record

    def observe(self, i, inp, out):
        self.records.append(out[2])
        if self.first is None:
            self.first = out
        self.entries[i] = _live_near(self.state)

    def check(self):
        fails = []
        groups = self.catalog.groups
        for rec in self.records:
            best = min(range(len(groups)), key=lambda g: (rec.losses[g], len(groups[g]), groups[g]))
            if rec.group != groups[best]:
                fails.append(f"monitor: step {rec.time_index} chose {rec.group}, not {groups[best]}")
        if self.first is None:
            return fails + ["monitor: no step completed"]
        state, pred, rec = self.first
        samples = R.mixture_draws(pred, 16, H.rng_for(self.seed, "monitor-check"))
        worst = 0.0
        for group in dict.fromkeys((rec.group, groups[0], groups[-1])):
            est, _ = monitor.expected_entropy_mc(state, self.model, group, samples=samples, pred=pred)
            want = float(np.mean(R.hypothetical_entropies(pred, group, samples)))
            worst = max(worst, abs(est - want))
        if worst > 1e-9:
            fails.append(f"monitor: expected entropy differs from the reference by {worst:.2e}")
        self.checked = {"entropy_abs_err": worst}
        return fails

    def layer_metrics(self, tracer, ops, op_secs):
        out = {f"{name}.ms": _span_ms(tracer, name, ops) for _, _, name in self.layers}
        out["monitor.expected_entropy_mc.calls"] = _span_calls(
            tracer, "monitor.expected_entropy_mc", ops
        )
        sel = sum(s for s, _ in tracer.per_op("monitor.select_group", ops))
        out["monitor.groups_per_s"] = len(self.catalog) * len(ops) / sel
        return {**out, **_entry_metrics(self.entries, ops)}

    def info(self):
        return {"warm_up_live_near": self.warm_entries, **self.checked}


class Train(Workload):
    """One full `model.fit` per operation, on fresh HAR-sized subjects drawn
    from a fresh generating model, so that a run's median covers many models
    and a cache across calls cannot fake a gain."""

    layers = (
        ("switchgp.fit", "fit_emissions", "fit.fit_emissions"),
        ("switchgp.fit", "nll_and_gradients", "likelihood.nll_and_gradients"),
    )
    SUBJECTS = 3
    ROWS = 350

    def setup(self):
        # The start `switchgp train` uses with its default flags.
        A, P = H.NUM_STATES, H.NUM_CHANNELS
        task = TaskCovariance(np.eye(P))
        self.skeleton = SwitchingGPModel(
            durations=[GammaDuration(2.0, 2.0)] * A,
            transitions=TransitionMatrix(np.full((A, A), 1.0 / (A - 1)) * (1 - np.eye(A))),
            emissions=[
                StateEmission(np.zeros(P), MaternKernel(1.0, 5.0, H.SMOOTHNESS), task)
                for _ in range(A)
            ],
            noise=NoiseModel(np.full(P, 0.1)),
            duration_cap=H.DURATION_CAP,
            shared_task=True,
        )
        self.config = FitConfig(duration_cap=H.DURATION_CAP)
        self.fits = []

    def next_input(self, i):
        params = H.model_params(self.seed, f"train-model-{i}")
        # Redraw until every state has two distinct durations, which the
        # closed-form Gamma estimator needs.
        for attempt in range(1000):
            rng = H.rng_for(self.seed, f"train-{i}-{attempt}")
            data = [H.subject(params, rng, self.ROWS) for _ in range(self.SUBJECTS)]
            durations = [[] for _ in range(H.NUM_STATES)]
            for series in data:
                for label, _, dur in model_mod.segment_series(series.labels):
                    durations[label - 1].append(dur)
            if all(len(set(d)) >= 2 for d in durations):
                return params, data
        raise RuntimeError("no subject set gives every state two distinct durations")

    def op(self, inp):
        return model_mod.fit(self.skeleton, inp[1], self.config)

    def observe(self, i, inp, fitted):
        self.fits.append((i, inp, fitted))

    def check(self):
        fails = []
        worst = 0.0
        for i, (params, data), fitted in self.fits:
            rep = fitted.fit_report
            means = np.array([e.mean for e in fitted.emissions])
            at_fit = R.labeled_nll(H.params_of(fitted), data)
            at_truth = R.labeled_nll(params, data, means=means)
            worst = max(worst, abs(at_fit - rep.final_objective) / abs(at_fit))
            if not rep.converged:
                fails.append(f"train: fit {i} did not converge: {rep.message}")
            if rep.final_objective > rep.initial_objective:
                fails.append(f"train: fit {i} ended above its start")
            if rep.final_objective > at_truth + 1e-9 * abs(at_truth):
                fails.append(
                    f"train: fit {i} NLL {rep.final_objective!r} exceeds the NLL "
                    f"{at_truth!r} at the generating covariances"
                )
        if worst > EXACT_TOL:
            fails.append(f"train: final NLL differs from the exact recomputation by {worst:.2e}")
        self.checked = {"final_nll_rel_err": worst}
        return fails

    def layer_metrics(self, tracer, ops, op_secs):
        fe = [s for s, _ in tracer.per_op("fit.fit_emissions", ops)]
        by_op = {i: fitted for i, _, fitted in self.fits}
        return {
            "fit.fit_emissions.ms": _median_ms(fe),
            "likelihood.nll_and_gradients.ms": _span_ms(
                tracer, "likelihood.nll_and_gradients", ops
            ),
            "model.closed_form.ms": _median_ms([op_secs[i] - s for i, s in zip(ops, fe)]),
            "likelihood.nll_and_gradients.calls": _span_calls(
                tracer, "likelihood.nll_and_gradients", ops
            ),
            "fit.iterations": float(np.mean([by_op[i].fit_report.iterations for i in ops])),
        }


class ScoreFFT(Workload):
    """One FFT-path `negative_loglik` per operation, on long segments."""

    layers = (
        ("switchgp.likelihood", "negative_loglik", "likelihood.negative_loglik"),
        ("switchgp.likelihood", "fast_segment_loglik", "circulant.fast_segment_loglik"),
        ("switchgp.likelihood", "segment_emission_loglik", "likelihood.dense_fallbacks"),
    )
    # FFT size is 2T: powers of two, 3-smooth, 5-smooth and prime cofactors.
    LENGTHS = (256, 384, 1000, 1021, 2048, 3001, 4096)

    def setup(self):
        self.params = H.model_params(self.seed)
        self.model = H.build_model(self.params)
        self.first = None

    def next_input(self, i):
        return H.long_series(self.params, H.rng_for(self.seed, f"fft-{i}"), self.LENGTHS)

    def op(self, series):
        return likelihood.negative_loglik(self.model, [series], use_fft=True)

    def observe(self, i, series, nll):
        if self.first is None:
            self.first = (series, nll)

    def check(self):
        if self.first is None:
            return ["score-fft: no operation completed"]
        series, nll = self.first
        fails = []
        total = 0.0
        worst = 0.0
        for label, start, dur in model_mod.segment_series(series.labels):
            seg = SegmentedSeries(
                series.observations[start : start + dur], labels=series.labels[start : start + dur]
            )
            want = R.segment_loglik(self.params, label - 1, seg.observations)
            got = -likelihood.negative_loglik(self.model, [seg], use_fft=True)
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            if rel > EXACT_TOL:
                fails.append(f"score-fft: length {dur} off by {rel:.2e} relative")
            total -= want
        if abs(nll - total) > EXACT_TOL * abs(total):
            fails.append(f"score-fft: series NLL {nll!r} != {total!r}")
        self.checked = {"loglik_rel_err": worst}
        return fails

    def layer_metrics(self, tracer, ops, op_secs):
        fast = tracer.per_op("circulant.fast_segment_loglik", ops)
        rows = sum(self.LENGTHS) * len(ops)
        return {
            "circulant.fast_segment_loglik.ms": _median_ms([s for s, _ in fast]),
            "likelihood.negative_loglik.ms": _span_ms(tracer, "likelihood.negative_loglik", ops),
            "circulant.rows_per_s": rows / sum(s for s, _ in fast),
            "likelihood.dense_fallbacks": _span_calls(tracer, "likelihood.dense_fallbacks", ops),
        }

    def probe(self):
        """Score a segment whose circulant embedding is indefinite (smooth
        kernel, long lengthscale, tiny noise), which the FFT path must hand
        to the dense fallback."""
        emission = StateEmission(
            np.zeros(1), MaternKernel(1e4, 100.0, 1.5), TaskCovariance(np.eye(1))
        )
        model = SwitchingGPModel(
            durations=[GammaDuration(2.0, 2.0)],
            transitions=TransitionMatrix(np.zeros((1, 1))),
            emissions=[emission],
            noise=NoiseModel(np.array([0.01])),
            duration_cap=16,
        )
        seg = SegmentedSeries(
            H.rng_for(self.seed, "probe").normal(size=(16, 1)), labels=np.ones(16, dtype=int)
        )
        likelihood.negative_loglik(model, [seg], use_fft=True)


WORKLOADS = {
    "recognize": Recognize,
    "monitor": Monitor,
    "train": Train,
    "score-fft": ScoreFFT,
}
