"""Exact state-space form of half-integer Matern GP emissions for filtering.

A Matern kernel with smoothness 1/2, 3/2, or 5/2 is the stationary law of a
linear stochastic differential equation of order 1, 2, or 3. Sampled on the
uniform unit grid, the discretized transition reproduces the kernel exactly,
so Kalman updates give the same per-row conditional densities as dense
Gaussian conditioning on the segment window, at constant cost per row.

The multivariate emission decouples through the congruence W from the
generalized eigendecomposition of K^Y against diag(noise): observation rows
are ``mean_j + W^{-T} f + eps`` where the channels f_p are independent Matern
processes with variances mu_p. One joint state vector stacks the P channel
states (channel-major); all channels share the transition matrix because
they share the temporal kernel within a state.

A `StateSpace` is one Kalman stack: emission states of any smoothness,
their per-channel models and the covariance table of their fully observed
segments. Each channel's block has the state dimension s of the stack's
highest order; a lower-order state keeps its SDE in the leading components
of the block, and the rest of its transition, process noise and prior are
exactly 0, so those components stay 0 through every Kalman step and leave
the state's moments and densities as they are alone. `predict`,
`observation_conditionals` and `update` take the stack and its one `Slots`
set: the Kalman moments of every stacked state's hypotheses, one slot per
state and elapsed duration. Which slots a row reaches, and which are clean,
follow from the rows' masks alone, so all states of a stack share them, and
each call is one batched pass over the states. Slots come in two kinds, and
`update` alone decides which:

- clean slots, whose segment so far saw only fully observed rows. Their
  covariances depend on the number of rows absorbed alone, so the stack's
  table holds them once, and a fully observed row moves only their means,
  channel by channel, in the rotated residual ``W^T (y - mean_j)``;
- joint slots, with (n, n) covariances of their own. A row with missing
  features couples the channels, so after one the covariances depend on
  which features each row observed, and every slot turns joint.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .kernels import LOG_2PI, MaternKernel, channel_bases, gaussian_logpdf

_STATE_DIM = {0.5: 1, 1.5: 2, 2.5: 3}


def matern_sde(kernel: MaternKernel):
    """Continuous-time SDE (F, L, q, P_inf) whose output is the Matern process."""
    lam = math.sqrt(2.0 * kernel.smoothness) / kernel.lengthscale
    s2 = kernel.variance
    dim = _STATE_DIM[kernel.smoothness]
    if dim == 1:
        F = np.array([[-lam]])
        q = 2.0 * s2 * lam
    elif dim == 2:
        F = np.array([[0.0, 1.0], [-(lam**2), -2.0 * lam]])
        q = 4.0 * s2 * lam**3
    else:
        F = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-(lam**3), -3.0 * lam**2, -3.0 * lam],
        ])
        q = (16.0 / 3.0) * s2 * lam**5
    L = np.zeros((dim, 1))
    L[-1, 0] = 1.0
    P_inf = scipy.linalg.solve_continuous_lyapunov(F, -q * (L @ L.T))
    P_inf = 0.5 * (P_inf + P_inf.T)
    return F, L, q, P_inf


def discretize(kernel: MaternKernel):
    """Exact unit-step discretization: transition A, process noise Q, prior P_inf."""
    F, _, _, P_inf = matern_sde(kernel)
    A = scipy.linalg.expm(F)
    Q = P_inf - A @ P_inf @ A.T
    Q = 0.5 * (Q + Q.T)
    return A, Q, P_inf


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack (a view)."""
    return np.swapaxes(a, -1, -2)


def _symmetrize(a: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of each matrix in a stack, in place, with ``work`` (of
    a's shape, overwritten) holding the transposes."""
    np.copyto(work, _mT(a))
    a += work
    a *= 0.5
    return a


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Channel-block-diagonal (..., P s, P s) matrices from their diagonal
    blocks (..., P, s, s)."""
    *lead, P, s, _ = blocks.shape
    return np.einsum("...pab,pq->...paqb", blocks, np.eye(P)).reshape(*lead, P * s, P * s)


class StateSpace:
    """Kalman model of a stack of S emission states across all channels,
    with the covariances of its fully observed segments.

    ``states`` are 0-based indices into ``model.emissions``; state k of the
    stack is the model's ``states[k]``. Each state's per-channel model is
    built once: the unit transition ``A1``, process noise ``Q1`` and
    stationary prior ``P0`` (S, P, s, s), each padded to the highest order
    among the states, and the observation of the position components
    ``Hpos = W^{-T}``. States that share a task factor share one channel
    basis. ``A``, ``Q`` (S, n, n) and ``H`` (S, P, n) are the joint forms,
    channel-major, that joint slots read.

    On fully observed rows the Riccati recursion does not depend on the
    data, and in the channel basis it splits into P independent
    s-dimensional filters with unit noise. Entry m of the table describes a
    segment that has absorbed m rows (m = 0 is a fresh segment) before its
    next one: the per-channel prior covariance of that row's state, the
    innovation variances (and their logs) and gains of the rotated
    channels, and the row's predictive covariance in y-space, each with a
    leading state axis. Entries are a pure function of the states' models;
    each is computed for every state the first time a stream asks for it,
    so the table reaches index m only after a stream has run m rows without
    a masked one.
    """

    def __init__(self, model, states):
        emissions = [model.emissions[j] for j in states]
        bases = channel_bases(model.emissions, model.noise, states)
        s = max(_STATE_DIM[e.temporal.smoothness] for e in emissions)
        unit = np.zeros((len(states), 3, s, s))  # transition, noise and prior, 0 past each order
        for u, e in zip(unit, emissions):
            k = _STATE_DIM[e.temporal.smoothness]
            u[:, :k, :k] = discretize(replace(e.temporal, variance=1.0))
        mu, W = (np.stack(x) for x in zip(*(bases[j] for j in states)))
        variance = np.array([[e.temporal.variance] for e in emissions])
        scale = (variance * np.maximum(mu, 0.0))[..., None, None]  # per-channel signal variance
        S, P = mu.shape
        self.dim = s  # per-channel state dimension, that of the highest stacked order
        self.Q1, self.P0 = scale * unit[:, None, 1], scale * unit[:, None, 2]
        self.A1 = np.broadcast_to(unit[:, None, 0], self.Q1.shape)
        self.Hpos = _mT(np.linalg.inv(W))
        self.W = W  # channel bases: z = W^T (y - mean) has unit noise
        self.logdet_W = np.linalg.slogdet(W)[1]
        self.mean = np.stack([e.mean for e in emissions])  # (S, P)
        self.noise = np.diag(model.noise.per_feature_variance)  # (P, P)
        self.A, self.Q = _block_diag(self.A1), _block_diag(self.Q1)
        self.H = np.zeros((S, P, P * s))
        self.H[..., ::s] = self.Hpos

        self.size = 0
        self.prior = np.empty((S, 0, P, s, s))
        self.var = np.empty((S, 0, P))
        self.logvar = np.empty((S, 0, P))
        self.gain = np.empty((S, 0, P, s))
        self.ycov = np.empty((S, 0, P, P))
        self._post = None  # per-channel posteriors after absorbing `size` rows
        self._scratch = np.empty(0)

    def extend(self, size: int) -> None:
        """Compute the table entries below ``size`` that are not there yet."""
        if size > self.var.shape[1]:
            capacity = max(size, 2 * self.var.shape[1])
            for name in ("prior", "var", "logvar", "gain", "ycov"):
                old = getattr(self, name)
                new = np.empty(old.shape[:1] + (capacity,) + old.shape[2:])
                new[:, : self.size] = old[:, : self.size]
                setattr(self, name, new)
        while self.size < size:
            if self.size == 0:
                prior = self.P0
            else:
                prior = self.A1 @ self._post @ _mT(self.A1) + self.Q1
                prior = 0.5 * (prior + _mT(prior))
            var = prior[..., 0, 0] + 1.0
            gain = prior[..., :, 0] / var[..., None]
            post = prior - gain[..., :, None] * prior[..., None, 0, :]
            self._post = 0.5 * (post + _mT(post))
            ycov = (self.Hpos * prior[:, None, :, 0, 0]) @ _mT(self.Hpos) + self.noise
            m = self.size
            self.prior[:, m], self.var[:, m], self.gain[:, m] = prior, var, gain
            self.logvar[:, m] = np.log(var)
            self.ycov[:, m] = 0.5 * (ycov + _mT(ycov))
            self.size = m + 1

    def rows(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Read-only view (S, hi - lo, ...) of entries lo..hi-1 of one of the
        table's arrays."""
        self.extend(hi)
        view = getattr(self, name)[:, lo:hi]
        view.flags.writeable = False
        return view

    def scratch(self, shape) -> np.ndarray:
        """A work array of ``shape``, a view of one buffer the stack keeps
        for the joint path, whose contents die with the call that asked for
        it. The joint path's (S, d, n, n) temporaries run to megabytes, and a
        fresh one on every row costs page faults."""
        size = math.prod(shape)
        if self._scratch.size < size:
            self._scratch = np.empty(size)
        return self._scratch[:size].reshape(shape)

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Joint (S, h, n, n) prior covariances of entries lo..hi-1: block
        diagonal over channels."""
        return _block_diag(self.rows("prior", lo, hi))


class Slots(NamedTuple):
    """Kalman moments of a stack's reached hypotheses, slot d-1 for d = 1..r
    of each state.

    The first ``clean`` slots of every state are clean: slot i has absorbed
    i+1 fully observed rows, so the prior covariance of its next row is
    entry i+1 of the stack's table, and nothing is stored for it. ``covs``
    holds the joint covariances of the other slots: posterior after
    `update`, prior of the next row after `predict`.
    """

    means: np.ndarray  # (S, r, n)
    clean: int
    covs: np.ndarray  # (S, r - clean, n, n)


def predict(ss: StateSpace, slots: Slots) -> Slots:
    """One-step-ahead prior of every slot: x -> A x, P -> A P A^T + Q.

    Clean slots keep their table entry, which holds the prior already.
    """
    covs = slots.covs
    if covs.shape[1]:
        A = ss.A[:, None]
        work = np.matmul(A, covs, out=ss.scratch(covs.shape))
        covs = work @ _mT(A)
        covs += ss.Q[:, None]
        _symmetrize(covs, work)
    return Slots(slots.means @ _mT(ss.A), slots.clean, covs)


def observation_conditionals(ss: StateSpace, slots: Slots):
    """Predicted observation mean (S, r, P) and covariance (S, r, P, P) per
    slot.

    Without joint slots the covariances are a read-only view of the table.
    """
    om = slots.means @ _mT(ss.H) + ss.mean[:, None, :]
    oc = ss.rows("ycov", 1, slots.clean + 1)
    if slots.covs.shape[1]:
        H = ss.H[:, None]
        joint = H @ slots.covs @ _mT(H)
        joint += ss.noise
        oc = np.concatenate([oc, joint], axis=1) if slots.clean else joint
    return om, oc


def update(ss: StateSpace, slots: Slots | None, row, mask, cap: int):
    """Absorb a row into a stack's predicted slots; returns the new slots and
    the row's log-density (S, r) under each.

    A fresh segment, with no rows absorbed and the prior of table entry 0,
    joins in front of ``slots`` (``None`` starts a stream), and the slot
    that would pass the duration cap ``cap`` drops off the end. ``row`` is a
    length-P observation; ``mask`` its observed-feature booleans. On a fully
    observed row the clean slots stay clean, one table entry further on, and
    the joint ones take the joint update; any other row turns every slot
    joint, and with nothing observed the priors pass through with zero
    evidence.
    """
    S, n = ss.A.shape[:2]
    means, clean, covs = np.zeros((S, 0, n)), 0, np.zeros((S, 0, n, n))
    if slots is not None:
        means, clean, covs = slots
    means = np.concatenate([np.zeros((S, 1, n)), means], axis=1)[:, :cap]
    clean = min(clean + 1, cap)
    covs = covs[:, : cap - clean]
    if not np.all(mask):
        covs = np.concatenate([ss.dense(0, clean), covs], axis=1)
        means, covs, logdens = _update_joint(ss, means, covs, row, mask)
        return Slots(means, 0, covs), logdens
    new_means, logdens = _update_clean(ss, means[:, :clean], row)
    if covs.shape[1]:
        jm, covs, jl = _update_joint(ss, means[:, clean:], covs.copy(), row, mask)
        new_means = np.concatenate([new_means, jm], axis=1)
        logdens = np.concatenate([logdens, jl], axis=1)
    return Slots(new_means, clean, covs), logdens


def _update_joint(ss: StateSpace, pm, pc, row, mask):
    """Kalman measurement update of joint slots (S, d, ...) on the observed
    features; the posterior covariances overwrite ``pc``."""
    if not np.any(mask):
        return pm, pc, np.zeros(pm.shape[:2])
    Hm = ss.H[:, mask]  # (S, m, n)
    innov = (row[mask] - ss.mean[:, mask])[:, None, :] - pm @ _mT(Hm)  # (S, d, m)
    PH = pc @ _mT(Hm)[:, None]  # (S, d, n, m)
    S = Hm[:, None] @ PH + ss.noise[np.ix_(mask, mask)]
    S = 0.5 * (S + _mT(S))
    logdens = gaussian_logpdf(innov, np.linalg.cholesky(S))

    gain_t = np.linalg.solve(S, _mT(PH))  # K^T = S^{-1} H P, (S, d, m, n)
    new_m = pm + (innov[..., None, :] @ gain_t)[..., 0, :]
    work = np.matmul(PH, gain_t, out=ss.scratch(pc.shape))
    np.subtract(pc, work, out=pc)
    return new_m, _symmetrize(pc, work), logdens


def _update_clean(ss: StateSpace, pm, row):
    """Fully observed update of the first ``pm.shape[1]`` clean slots of
    every state, channel by channel.

    The rotated residual z_p - x_p[0] of channel p has variance var_p; the
    channel's state moves along its gain. Densities pick up the Jacobian
    |det W| of the rotation.
    """
    S, d, n = pm.shape
    var = ss.rows("var", 0, d)  # (S, d, P)
    resid = (row - ss.mean)[:, None, :] @ ss.W - pm[..., :: ss.dim]  # (S, d, P)
    # each channel's residual repeated over its s state components
    new_m = pm + np.repeat(resid, ss.dim, axis=-1) * ss.rows("gain", 0, d).reshape(S, d, n)
    quad = np.sum(resid**2 / var + ss.rows("logvar", 0, d), axis=-1)
    return new_m, -0.5 * (quad + var.shape[-1] * LOG_2PI) + ss.logdet_W[:, None]
