"""Hand-rolled reference implementations used as test oracles.

Everything in this module is deliberately naive: dense matrices, explicit
Python loops, exhaustive enumeration, off-the-shelf scipy routines. Nothing
here calls into switchgp beyond reading plain parameter containers, so a bug
in the library's fast paths cannot cancel out of a comparison.

Conventions shared with the library:
  - states are labeled 1..A externally, 0..A-1 internally
  - stacked vectors are feature-major: entry (t, p) sits at flat index p*T + t
  - durations are discrete masses from Gamma CDF differences on unit bins,
    truncated at D_max and renormalized
"""

import itertools
import math

import numpy as np
import scipy.integrate
import scipy.special
import scipy.stats

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# kernels


def matern_value(variance, lengthscale, smoothness, lag):
    """Closed-form Matern evaluated one lag at a time."""
    r = abs(float(lag)) / float(lengthscale)
    if smoothness == 0.5:
        shape = math.exp(-r)
    elif smoothness == 1.5:
        a = math.sqrt(3.0) * r
        shape = (1.0 + a) * math.exp(-a)
    elif smoothness == 2.5:
        a = math.sqrt(5.0) * r
        shape = (1.0 + a + a * a / 3.0) * math.exp(-a)
    else:
        raise ValueError(f"unsupported smoothness {smoothness}")
    return float(variance) * shape


def split_peak_logsumexp(a, axis=None):
    """log(sum(exp(a))) by the split-peak formula of `kernels.logsumexp`,
    written with numpy's reductions and a masked copy: the k maxima are split
    off and the rest summed relative to them, as
    log1p(rest / k) + log(k) + max."""
    peak = np.max(a, axis=axis, keepdims=True)
    at_peak = a == peak
    count = np.sum(at_peak, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.sum(np.exp(np.where(at_peak, -np.inf, a - peak)), axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
    return np.squeeze(out, axis=axis)[()]


def dense_gram(kernel, num_steps):
    """(T+1)x(T+1) temporal Gram matrix built entry by entry."""
    n = num_steps + 1
    out = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            out[a, b] = matern_value(
                kernel.variance, kernel.lengthscale, kernel.smoothness, a - b
            )
    return out


def grid_covariance(transition, prior, num_steps):
    """(T+1)x(T+1) covariance of the first state component of a stationary
    linear model on the grid, from powers of its unit-step ``transition``
    and its stationary ``prior`` (cov(x_{t+k}, x_t) = A^k P)."""
    lagged = np.empty(num_steps + 1)
    power = np.eye(transition.shape[0])
    for k in range(num_steps + 1):
        lagged[k] = (power @ prior)[0, 0]
        power = transition @ power
    lags = np.abs(np.subtract.outer(np.arange(num_steps + 1), np.arange(num_steps + 1)))
    return lagged[lags]


# ---------------------------------------------------------------------------
# dense segment densities


def segment_cov(emission, noise, length):
    """Dense feature-major covariance K^Y (x) K^T + D (x) I for a segment."""
    KT = dense_gram(emission.temporal, length - 1)
    L = np.asarray(emission.task.cholesky_factor, dtype=float)
    KY = L @ L.T
    D = np.diag(np.asarray(noise.per_feature_variance, dtype=float))
    return np.kron(KY, KT) + np.kron(D, np.eye(length))


def segment_logdensity(emission, noise, window, mask=None, means=None):
    """Gaussian log-density of the observed entries of one segment window.

    Unobserved entries are marginalized by row/column deletion. A fully
    masked window carries no evidence and scores 0.
    """
    window = np.atleast_2d(np.asarray(window, dtype=float))
    d, P = window.shape
    if mask is None:
        mask = np.ones((d, P), dtype=bool)
    mask = np.atleast_2d(np.asarray(mask, dtype=bool))
    if not mask.any():
        return 0.0
    if means is None:
        means = np.tile(np.asarray(emission.mean, dtype=float), (d, 1))
    cov = segment_cov(emission, noise, d)
    idx = [p * d + t for t in range(d) for p in range(P) if mask[t, p]]
    vec = np.array([window[t, p] for t in range(d) for p in range(P) if mask[t, p]])
    mu = np.array([means[t, p] for t in range(d) for p in range(P) if mask[t, p]])
    sub = cov[np.ix_(idx, idx)]
    return float(
        scipy.stats.multivariate_normal(mean=mu, cov=sub).logpdf(vec)
    )


def conditional_next_row(emission, noise, window, mask):
    """Mean and covariance (noise included) of the row after a window, given
    the window's observed entries, by dense Gaussian conditioning without
    jitter."""
    window = np.atleast_2d(np.asarray(window, dtype=float))
    d, P = window.shape
    cov = segment_cov(emission, noise, d + 1)
    obs = [p * (d + 1) + t for t in range(d) for p in range(P) if mask[t, p]]
    nxt = [p * (d + 1) + d for p in range(P)]
    mean = np.asarray(emission.mean, dtype=float)
    resid = np.array([window[t, p] - mean[p] for t in range(d) for p in range(P) if mask[t, p]])
    K_no = cov[np.ix_(nxt, obs)]
    gain = np.linalg.solve(cov[np.ix_(obs, obs)], K_no.T).T if obs else np.zeros((P, 0))
    return mean + gain @ resid.reshape(-1), cov[np.ix_(nxt, nxt)] - gain @ K_no.T


def run_lengths(labels):
    """Run-length encode a label vector into (state, start, duration)."""
    labels = list(labels)
    out = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] != labels[start]:
            out.append((labels[start], start, i - start))
            start = i
    return out


def dense_nll(model, data):
    """Sum of negative segment log-densities over all subjects and segments."""
    total = 0.0
    for series in data:
        obs = np.asarray(series.observations, dtype=float)
        for state, start, dur in run_lengths(series.labels):
            window = obs[start : start + dur]
            m = None if series.mask is None else series.mask[start : start + dur]
            total -= segment_logdensity(
                model.emissions[state - 1], model.noise, window, mask=m
            )
    return total


# ---------------------------------------------------------------------------
# duration law


def gamma_duration_masses(duration, cap):
    """Per-step masses and survival from the Gamma CDF, truncated at cap.

    Returns (g, S) with g[d-1] = [G(d)-G(d-1)]/G(cap) and
    S[d-1] = [G(cap)-G(d-1)]/G(cap).
    """
    dist = scipy.stats.gamma(a=duration.shape, scale=duration.scale)
    cdf = dist.cdf(np.arange(cap + 1, dtype=float))
    top = cdf[cap]
    g = np.diff(cdf) / top
    S = (top - cdf[:-1]) / top
    return g, S


# ---------------------------------------------------------------------------
# exhaustive forward filter

def _compositions(total, largest):
    """All ordered tuples of parts in 1..largest summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(largest, total) + 1):
        for rest in _compositions(total - first, largest):
            yield (first,) + rest


def _label_sequences(num_parts, num_states):
    """State index tuples with no immediate repeats (self-loops if A=1)."""
    if num_states == 1:
        yield (0,) * num_parts
        return
    for labels in itertools.product(range(num_states), repeat=num_parts):
        if all(labels[i] != labels[i + 1] for i in range(num_parts - 1)):
            yield labels


def enumerate_alpha(model, observations, mask=None):
    """Log joint table over (final state, elapsed duration) by enumeration.

    Sums over every segmentation of the rows into complete segments (scored
    by the duration mass) plus one ongoing suffix segment (scored by the
    survival mass). Entry [j, d-1] collects segmentations whose ongoing
    segment is in state j+1 and has covered d rows so far. logsumexp over
    the table is the log-evidence of the rows.
    """
    Y = np.atleast_2d(np.asarray(observations, dtype=float))
    T, P = Y.shape
    if mask is None:
        mask = np.ones((T, P), dtype=bool)
    A = model.num_states
    cap = model.duration_cap
    masses = [gamma_duration_masses(d, cap) for d in model.durations]
    with np.errstate(divide="ignore"):
        log_g = np.log(np.array([m[0] for m in masses]))
        log_S = np.log(np.array([m[1] for m in masses]))
        log_p = (
            np.zeros((1, 1))
            if A == 1
            else np.log(np.asarray(model.transitions.probs, dtype=float))
        )
        log_pi = np.log(np.asarray(model.initial, dtype=float))
    table = np.full((A, cap), -np.inf)
    for parts in _compositions(T, cap):
        k = len(parts)
        for labels in _label_sequences(k, A):
            lp = log_pi[labels[0]]
            for i in range(k - 1):
                lp += log_p[labels[i], labels[i + 1]]
            pos = 0
            for i, (dur, j) in enumerate(zip(parts, labels)):
                lp += log_g[j, dur - 1] if i < k - 1 else log_S[j, dur - 1]
                lp += segment_logdensity(
                    model.emissions[j],
                    model.noise,
                    Y[pos : pos + dur],
                    mask=mask[pos : pos + dur],
                )
                pos += dur
            jf, df = labels[-1], parts[-1]
            table[jf, df - 1] = np.logaddexp(table[jf, df - 1], lp)
    return table


def enumerate_log_evidence(model, observations, mask=None):
    return float(scipy.special.logsumexp(enumerate_alpha(model, observations, mask)))


def enumerate_state_posterior(model, observations, mask=None):
    table = enumerate_alpha(model, observations, mask)
    log_marg = scipy.special.logsumexp(table, axis=1)
    log_marg -= scipy.special.logsumexp(log_marg)
    return np.exp(log_marg)


# ---------------------------------------------------------------------------
# parameter estimation oracles


def numerical_gamma_mle(samples):
    """Gamma MLE by direct likelihood maximization (scipy, loc pinned at 0)."""
    shape, _, scale = scipy.stats.gamma.fit(np.asarray(samples, float), floc=0.0)
    return float(shape), float(scale)


def central_difference(func, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        grad[i] = (func(x + step) - func(x - step)) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# one-step table advance, every entry scored


def advance_table(pred, y, idx):
    """Unnormalized log table (..., A, D) after observing ``y`` (..., m) on
    features ``idx``, from the one-step laws of ``pred`` (its plain arrays
    only): fresh segments enter at d = 1 and continuing entries move from d
    to d+1, each law scored by scipy, none pruned. An empty ``idx`` carries
    no evidence."""
    y = np.asarray(y, dtype=float)
    idx = np.asarray(idx, dtype=int)
    lead = y.shape[:-1]
    A, D = pred.cont_logw.shape

    def logpdf(mean, cov):
        if idx.size == 0:
            return np.zeros(lead)
        law = scipy.stats.multivariate_normal(mean[idx], cov[np.ix_(idx, idx)])
        return np.atleast_1d(law.logpdf(y.reshape(-1, idx.size))).reshape(lead)

    out = np.full(lead + (A, D), -np.inf)
    for j in range(A):
        if np.isfinite(pred.fresh_logw[j]):
            out[..., j, 0] = pred.fresh_logw[j] + logpdf(pred.fresh_mean[j], pred.fresh_cov[j])
        for d in range(D - 1):  # an entry at the cap cannot continue
            if np.isfinite(pred.cont_logw[j, d]):
                out[..., j, d + 1] = pred.cont_logw[j, d] + logpdf(
                    pred.cont_mean[j, d], pred.cont_cov[j, d]
                )
    return out


# ---------------------------------------------------------------------------
# expected-entropy quadrature


def shannon_entropy(probs):
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))


def quad_expected_entropy(model, history, feature, history_mask=None):
    """E[H(state posterior after one more 1-D observation)] by quadrature.

    Both the predictive density of the next observation (restricted to one
    feature) and the posterior entropy given that observation come from the
    enumeration filter; the integral over the observation value is done by
    adaptive quadrature. Completely independent of the library's mixture
    representation and MC estimator.
    """
    Y = np.atleast_2d(np.asarray(history, dtype=float))
    T, P = Y.shape
    if history_mask is None:
        history_mask = np.ones((T, P), dtype=bool)
    base = enumerate_log_evidence(model, Y, history_mask)
    row_mask = np.zeros(P, dtype=bool)
    row_mask[feature] = True

    def extended(value):
        row = np.zeros(P)
        row[feature] = value
        return (
            np.vstack([Y, row[None, :]]),
            np.vstack([history_mask, row_mask[None, :]]),
        )

    def integrand(value):
        Yx, Mx = extended(value)
        table = enumerate_alpha(model, Yx, Mx)
        log_marg = scipy.special.logsumexp(table, axis=1)
        evidence = scipy.special.logsumexp(log_marg)
        post = np.exp(log_marg - evidence)
        density = math.exp(evidence - base)
        return shannon_entropy(post) * density

    value, _ = scipy.integrate.quad(
        integrand, -np.inf, np.inf, limit=400, epsabs=1e-10, epsrel=1e-10
    )
    return float(value)


def mixture_moments_mc(mix, num_samples, seed):
    """Monte-Carlo mean of a Gaussian mixture with per-dimension std errors."""
    draws = mix.sample(num_samples, np.random.default_rng(seed))
    mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / math.sqrt(num_samples)
    return mean, se
