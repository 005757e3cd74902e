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

`predict`, `observation_conditionals` and `update` work on one state's
`Slots`: the Kalman moments of its hypotheses, one slot per elapsed
duration. Slots come in two kinds, and `update` alone decides which:

- clean slots, whose segment so far saw only fully observed rows. Their
  covariances depend on the number of rows absorbed alone, so the state's
  `CovarianceTable` holds them once, and a fully observed row moves only
  their means, channel by channel, in the rotated residual
  ``W^T (y - mean_j)``;
- joint slots, with (n, n) covariances of their own. A row with missing
  features couples the channels, so after one the covariances depend on
  which features each row observed, and every slot turns joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .kernels import LOG_2PI, MaternKernel, channel_basis, gaussian_logpdf

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


def discretize(kernel: MaternKernel, dt: float = 1.0):
    """Exact unit-step discretization: transition A, process noise Q, prior P_inf."""
    F, _, _, P_inf = matern_sde(kernel)
    A = scipy.linalg.expm(F * dt)
    Q = P_inf - A @ P_inf @ A.T
    Q = 0.5 * (Q + Q.T)
    return A, Q, P_inf


@dataclass
class StateSpace:
    """Joint state-space model of one emission state across all channels."""

    A: np.ndarray  # (n, n) joint transition
    Q: np.ndarray  # (n, n) joint process noise
    P0: np.ndarray  # (n, n) joint stationary prior
    H: np.ndarray  # (P, n) observation matrix (position components through W^{-T})
    dim: int  # per-channel state dimension
    W: np.ndarray  # (P, P) channel basis: z = W^T (y - mean) has unit noise
    mean: np.ndarray  # (P,) emission mean
    noise: np.ndarray  # (P, P) diagonal observation noise covariance


def build_statespace(emission, noise) -> StateSpace:
    """Assemble the joint channel-stacked state space for one emission state."""
    mu, W = channel_basis(emission.task, noise)
    mu = np.maximum(mu, 0.0)
    P = mu.shape[0]

    unit = MaternKernel(1.0, emission.temporal.lengthscale, emission.temporal.smoothness)
    A1, Q1, P1 = discretize(unit)
    s = A1.shape[0]
    n = P * s
    scale = emission.temporal.variance * mu  # per-channel signal variance

    A = np.kron(np.eye(P), A1)
    Q = np.zeros((n, n))
    P0 = np.zeros((n, n))
    for p in range(P):
        blk = slice(p * s, (p + 1) * s)
        Q[blk, blk] = scale[p] * Q1
        P0[blk, blk] = scale[p] * P1

    H = np.zeros((P, n))
    H[:, ::s] = np.linalg.inv(W).T
    return StateSpace(
        A=A, Q=Q, P0=P0, H=H, dim=s, W=W,
        mean=emission.mean, noise=np.diag(noise.per_feature_variance),
    )


def _channel_blocks(ss: StateSpace, mat: np.ndarray) -> np.ndarray:
    """Diagonal (s, s) blocks (P, s, s) of a channel-block-diagonal (n, n) matrix."""
    P, s = ss.H.shape[0], ss.dim
    ch = np.arange(P)
    return mat.reshape(P, s, P, s)[ch, :, ch, :]


class CovarianceTable:
    """Kalman covariances of one state's fully observed segments, indexed by d.

    On fully observed rows the Riccati recursion does not depend on the
    data, and in the channel basis it splits into P independent
    s-dimensional filters with unit noise. Entry m describes a segment that
    has absorbed m rows (m = 0 is a fresh segment) before its next one: the
    per-channel prior covariance of that row's state, the innovation
    variances and gains of the rotated channels, and the row's predictive
    covariance in y-space. Entries are a pure function of the state's model;
    each is computed the first time a stream asks for it, so a table reaches
    index m only after a stream has run m rows without a masked one.
    """

    def __init__(self, ss: StateSpace):
        P, s = ss.H.shape[0], ss.dim
        self.A1 = ss.A[:s, :s]
        self.Q = _channel_blocks(ss, ss.Q)
        self.P0 = _channel_blocks(ss, ss.P0)
        self.Hpos = ss.H[:, ::s]
        self.noise = ss.noise
        self.logdet_W = float(np.linalg.slogdet(ss.W)[1])
        self.size = 0
        self.prior = np.empty((0, P, s, s))
        self.var = np.empty((0, P))
        self.gain = np.empty((0, P, s))
        self.ycov = np.empty((0, P, P))
        self._post = None  # per-channel posterior after absorbing `size` rows

    def extend(self, size: int) -> None:
        """Compute the entries below ``size`` that are not there yet."""
        if size > self.var.shape[0]:
            capacity = max(size, 2 * self.var.shape[0])
            for name in ("prior", "var", "gain", "ycov"):
                old = getattr(self, name)
                new = np.empty((capacity,) + old.shape[1:])
                new[: self.size] = old[: self.size]
                setattr(self, name, new)
        while self.size < size:
            if self.size == 0:
                prior = self.P0
            else:
                prior = self.A1 @ self._post @ self.A1.T + self.Q
                prior = 0.5 * (prior + np.swapaxes(prior, 1, 2))
            var = prior[:, 0, 0] + 1.0
            gain = prior[:, :, 0] / var[:, None]
            post = prior - gain[:, :, None] * prior[:, None, 0, :]
            self._post = 0.5 * (post + np.swapaxes(post, 1, 2))
            ycov = (self.Hpos * prior[:, 0, 0]) @ self.Hpos.T + self.noise
            m = self.size
            self.prior[m], self.var[m], self.gain[m] = prior, var, gain
            self.ycov[m] = 0.5 * (ycov + ycov.T)
            self.size = m + 1

    def rows(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Read-only view of entries lo..hi-1 of one of the table's arrays."""
        self.extend(hi)
        view = getattr(self, name)[lo:hi]
        view.flags.writeable = False
        return view

    def dense(self, lo: int, hi: int) -> np.ndarray:
        """Joint (h, n, n) prior covariances of entries lo..hi-1: block
        diagonal over channels."""
        prior = self.rows("prior", lo, hi)  # (h, P, s, s)
        h, P, s, _ = prior.shape
        return np.einsum("hpab,pq->hpaqb", prior, np.eye(P)).reshape(h, P * s, P * s)


class Slots(NamedTuple):
    """Kalman moments of one state's reached hypotheses, slot d-1 for d = 1..r.

    The first ``clean`` slots are clean: slot i has absorbed i+1 fully
    observed rows, so the prior covariance of its next row is entry i+1 of
    the state's table, and nothing is stored for it. ``covs`` holds the
    joint covariances of the other slots: posterior after `update`, prior of
    the next row after `predict`.
    """

    means: np.ndarray  # (r, n)
    clean: int
    covs: np.ndarray  # (r - clean, n, n)


def predict(ss: StateSpace, slots: Slots) -> Slots:
    """One-step-ahead prior of every slot: x -> A x, P -> A P A^T + Q.

    Clean slots keep their table entry, which holds the prior already.
    """
    covs = slots.covs
    if covs.shape[0]:
        covs = ss.A @ covs @ ss.A.T + ss.Q
        covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    return Slots(slots.means @ ss.A.T, slots.clean, covs)


def observation_conditionals(ss: StateSpace, table: CovarianceTable, slots: Slots):
    """Predicted observation mean (r, P) and covariance (r, P, P) per slot.

    Without joint slots the covariances are a read-only view of the table.
    """
    om = slots.means @ ss.H.T + ss.mean[None, :]
    oc = table.rows("ycov", 1, slots.clean + 1)
    if slots.covs.shape[0]:
        oc = np.concatenate([oc, ss.H @ slots.covs @ ss.H.T + ss.noise])
    return om, oc


def update(ss: StateSpace, table: CovarianceTable, slots: Slots | None, row, mask, cap: int):
    """Absorb a row into one state's predicted slots; returns the new slots
    and the row's log-density under each.

    A fresh segment, with no rows absorbed and the prior of table entry 0,
    joins in front of ``slots`` (``None`` starts a stream), and the slot
    that would pass the duration cap ``cap`` drops off the end. ``row`` is a
    length-P observation; ``mask`` its observed-feature booleans. On a fully
    observed row the clean slots stay clean, one table entry further on, and
    the joint ones take the joint update; any other row turns every slot
    joint, and with nothing observed the priors pass through with zero
    evidence.
    """
    n = ss.A.shape[0]
    means, clean, covs = np.zeros((0, n)), 0, np.zeros((0, n, n))
    if slots is not None:
        means, clean, covs = slots
    means = np.vstack([np.zeros((1, n)), means])[:cap]
    clean = min(clean + 1, cap)
    covs = covs[: cap - clean]
    if not np.all(mask):
        covs = np.concatenate([table.dense(0, clean), covs])
        means, covs, logdens = _update_joint(ss, means, covs, row, mask)
        return Slots(means, 0, covs), logdens
    new_means, logdens = _update_clean(ss, table, means[:clean], row)
    if covs.shape[0]:
        jm, covs, jl = _update_joint(ss, means[clean:], covs, row, mask)
        new_means, logdens = np.vstack([new_means, jm]), np.concatenate([logdens, jl])
    return Slots(new_means, clean, covs), logdens


def _update_joint(ss: StateSpace, pm, pc, row, mask):
    """Kalman measurement update of joint slots on the observed features."""
    d = pm.shape[0]
    if not np.any(mask):
        return pm, pc, np.zeros(d)
    Hm = ss.H[mask]
    innov = (row[mask] - ss.mean[mask])[None, :] - pm @ Hm.T  # (d, m)
    PH = pc @ Hm.T  # (d, n, m)
    S = Hm @ PH + ss.noise[np.ix_(mask, mask)]
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    logdens = gaussian_logpdf(innov, np.linalg.cholesky(S))

    gain_t = np.linalg.solve(S, np.swapaxes(PH, 1, 2))  # K^T = S^{-1} H P, (d, m, n)
    new_m = pm + (innov[:, None, :] @ gain_t)[:, 0]
    new_c = pc - PH @ gain_t
    new_c = 0.5 * (new_c + np.swapaxes(new_c, 1, 2))
    return new_m, new_c, logdens


def _update_clean(ss: StateSpace, table: CovarianceTable, pm, row):
    """Fully observed update of the first ``len(pm)`` clean slots, channel
    by channel.

    The rotated residual z_p - x_p[0] of channel p has variance var_p; the
    channel's state moves along its gain. Densities pick up the Jacobian
    |det W| of the rotation.
    """
    d = pm.shape[0]
    var = table.rows("var", 0, d)  # (d, P)
    resid = (row - ss.mean) @ ss.W - pm[:, :: ss.dim]  # (d, P)
    new_m = pm + (resid[:, :, None] * table.rows("gain", 0, d)).reshape(d, -1)
    quad = np.sum(resid**2 / var + np.log(var), axis=1)
    return new_m, -0.5 * (quad + var.shape[1] * LOG_2PI) + table.logdet_W
