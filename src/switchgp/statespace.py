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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import MaternKernel, channel_basis, gaussian_logpdf

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
    return StateSpace(A=A, Q=Q, P0=P0, H=H, dim=s)


def predict(ss: StateSpace, means: np.ndarray, covs: np.ndarray):
    """One-step-ahead prior for a batch of hypotheses: x -> A x, P -> A P A^T + Q."""
    pm = means @ ss.A.T
    pc = np.einsum("ij,djk,lk->dil", ss.A, covs, ss.A)
    pc = pc + ss.Q[None, :, :]
    return pm, 0.5 * (pc + np.swapaxes(pc, 1, 2))


def observation_conditionals(ss: StateSpace, mean_vec, noise, pm, pc):
    """Predicted observation mean (d, P) and covariance (d, P, P) per hypothesis."""
    om = pm @ ss.H.T + mean_vec[None, :]
    oc = np.einsum("pi,dij,qj->dpq", ss.H, pc, ss.H)
    oc = oc + np.diag(noise.per_feature_variance)[None, :, :]
    return om, oc


def update(ss: StateSpace, mean_vec, noise, pm, pc, row, mask):
    """Kalman measurement update on observed features; returns log-densities.

    ``row`` is a length-P observation; ``mask`` its observed-feature booleans.
    With nothing observed the prediction passes through with zero evidence.
    """
    d = pm.shape[0]
    if not np.any(mask):
        return pm, pc, np.zeros(d)
    Hm = ss.H[mask]
    Rm = np.diag(noise.per_feature_variance[mask])
    innov = (row[mask] - mean_vec[mask])[None, :] - pm @ Hm.T  # (d, m)
    PH = np.einsum("dij,mj->dim", pc, Hm)  # (d, n, m)
    S = np.einsum("pi,dim->dpm", Hm, PH) + Rm[None, :, :]
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    Lc = np.linalg.cholesky(S)
    logdens = gaussian_logpdf(innov, Lc)

    # Transposed gain K^T = S^{-1} H P, through the two triangular factors.
    gain_t = np.linalg.solve(
        np.swapaxes(Lc, 1, 2), np.linalg.solve(Lc, np.swapaxes(PH, 1, 2))
    )  # (d, m, n)
    new_m = pm + np.einsum("dm,dmi->di", innov, gain_t)
    new_c = pc - np.einsum("dim,dmj->dij", PH, gain_t)
    new_c = 0.5 * (new_c + np.swapaxes(new_c, 1, 2))
    return new_m, new_c, logdens


def stationary_observation(ss: StateSpace, mean_vec, noise):
    """Prior observation distribution of a fresh segment: N(mean, K(0) K^Y + D)."""
    cov = ss.H @ ss.P0 @ ss.H.T + np.diag(noise.per_feature_variance)
    return mean_vec.copy(), 0.5 * (cov + cov.T)


def exact_grid_covariance(kernel: MaternKernel, num_steps: int) -> np.ndarray:
    """Covariance of the observed SDE component on the grid, for validation.

    Equals `kernels.gram_matrix` exactly; kept as an independent route for
    tests (transition powers instead of kernel evaluations).
    """
    A1, _, P1 = discretize(kernel)
    s = A1.shape[0]
    out = np.zeros((num_steps + 1, num_steps + 1))
    Ak = np.eye(s)
    first = np.zeros(num_steps + 1)
    for k in range(num_steps + 1):
        first[k] = (Ak @ P1)[0, 0]
        Ak = A1 @ Ak
    idx = np.abs(np.subtract.outer(np.arange(num_steps + 1), np.arange(num_steps + 1)))
    return first[idx]
