"""Reference figures that the gated workloads do not produce.

    python3 bench/figures.py

Times, on the benchmark's HAR-shaped model and with one BLAS thread, the
dense reference filter backend at a duration cap of 30, one
`nll_and_gradients` on two 1,500-row subjects, and, for each `score-fft`
segment length, the FFT path of `negative_loglik` against its dense path
(the decoupled `group_nll`) and the entry-level dense density. Prints
Markdown tables; nothing is gated.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import harmodel as H  # noqa: E402
from switchgp import filtering, gp_predict, likelihood  # noqa: E402
from switchgp.model import SegmentedSeries  # noqa: E402
from workloads import ScoreFFT  # noqa: E402

ENTRY_DENSE_MAX_ROWS = 400  # (T P)^2 doubles; beyond this the matrix passes 100 MB


def timed(fn, repeats):
    """Median seconds over ``repeats`` calls, and the last call's value."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out), value


def main():
    params = H.model_params(0)
    model = H.build_model(params)

    stream = H.Stream(params, H.rng_for(0, "figures"))
    ref = replace(model, duration_cap=30)
    state = filtering.forward_init(ref, stream.row(0), backend="reference")
    for t in range(1, 31):
        state = filtering.forward_step(state, stream.row(t), ref)
    t = 31

    def ref_step():
        nonlocal state, t
        state = filtering.forward_step(state, stream.row(t), ref)
        t += 1

    secs, _ = timed(ref_step, 5)
    print(f"| reference backend step, D=30, steady state | {secs:.3g} s |")
    rng = H.rng_for(0, "figures-fit")
    data = [H.subject(params, rng, 1500) for _ in range(2)]
    secs, _ = timed(lambda: likelihood.nll_and_gradients(model, data), 5)
    print(f"| nll_and_gradients, 2 x 1,500 rows | {1e3 * secs:.3g} ms |")

    print()
    print("| T | 2T | FFT path | group_nll | entry-level dense | FFT vs group_nll |")
    print("| --- | --- | --- | --- | --- | --- |")
    rng = H.rng_for(0, "figures-fft")
    e = model.emissions[0]
    for T in ScoreFFT.LENGTHS:
        values = H.segment_values(rng, params, 0, T)
        series = [SegmentedSeries(values, labels=np.ones(T, dtype=int))]
        fft, fast = timed(lambda: likelihood.negative_loglik(model, series, use_fft=True), 3)
        dense, exact = timed(lambda: likelihood.negative_loglik(model, series), 1)
        if T <= ENTRY_DENSE_MAX_ROWS:
            entry, _ = timed(lambda: gp_predict.segment_emission_loglik(e, model.noise, values), 1)
            entry_txt = f"{entry:.3g} s"
        else:
            entry_txt = "not run (memory)"
        rel = abs(fast - exact) / abs(exact)
        print(f"| {T} | {2 * T} | {1e3 * fft:.3g} ms | {dense:.3g} s | {entry_txt} | {rel:.1e} |")


if __name__ == "__main__":
    main()
