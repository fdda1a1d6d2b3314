"""Per-sample reference for the CHP parametric bootstrap.

This is the straightforward implementation the batched kernel in
``regimetest.chp`` replaced: one pass per sample, an ``lstsq`` AR(1) fit,
the full (n, 3, 3) Hessian tensor contracted by ``einsum``, a Python loop
over time for the rho accumulator, a plain QR projection and a scalar AR(1)
simulation loop.  Tests compare the kernel against it.
"""

from __future__ import annotations

import numpy as np

from regimetest._seeding import DOMAIN_BOOTSTRAP, DOMAIN_NUISANCE, substream
from regimetest.chp import _psi_weight, sample_nuisance_draws


def standardize(y: np.ndarray) -> np.ndarray:
    sd = y.std()
    if sd <= 0.0:
        raise ValueError("cannot standardize a constant series")
    return (y - y.mean()) / sd


def score_panel(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """Scores (n, 3), Hessians (n, 3, 3) and (c, phi, s2) at the OLS fit."""
    n = len(y) - 1
    X = np.column_stack([np.ones(n), y[:-1]])
    beta, *_ = np.linalg.lstsq(X, y[1:], rcond=None)
    eps = y[1:] - X @ beta
    s2 = float(eps @ eps / n)
    ylag = y[:-1]
    scores = np.column_stack(
        [eps / s2, eps * ylag / s2, -0.5 / s2 + eps**2 / (2.0 * s2**2)]
    )
    hess = np.empty((n, 3, 3))
    hess[:, 0, 0] = -1.0 / s2
    hess[:, 0, 1] = hess[:, 1, 0] = -ylag / s2
    hess[:, 0, 2] = hess[:, 2, 0] = -eps / s2**2
    hess[:, 1, 1] = -(ylag**2) / s2
    hess[:, 1, 2] = hess[:, 2, 1] = -eps * ylag / s2**2
    hess[:, 2, 2] = 0.5 / s2**2 - eps**2 / s2**3
    return scores, hess, (float(beta[0]), float(beta[1]), s2)


def mu2_paths(scores: np.ndarray, hess: np.ndarray, H: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """mu2_t for a batch of draws; shape (n, d)."""
    g = scores @ H.T
    quad = np.einsum("tij,di,dj->td", hess, H, H)
    n, d = g.shape
    a = np.zeros((n, d))
    for t in range(1, n):
        a[t] = rhos * (a[t - 1] + g[t - 1])
    return 0.5 * (quad + g**2 + 2.0 * g * a)


def criteria(scores, hess, T, H, rhos) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw supremum criterion and Psi weight."""
    mu2 = mu2_paths(scores, hess, H, rhos)
    Gam = mu2.sum(axis=0) / np.sqrt(T)
    Q, _ = np.linalg.qr(scores)
    resid = mu2 - Q @ (Q.T @ mu2)
    ss = np.einsum("td,td->d", resid, resid)
    total = np.einsum("td,td->d", mu2, mu2)
    nonzero = ss > 1.0e-24 * total
    gnorm = np.zeros_like(Gam)
    gnorm[nonzero] = Gam[nonzero] / np.sqrt(ss[nonzero])
    sup_criteria = 0.5 * np.maximum(0.0, gnorm) ** 2
    sup_criteria[~nonzero] = 0.0
    psi = np.where(nonzero, _psi_weight(gnorm), 1.0)
    return sup_criteria, psi


def simulate_ar1(c, phi, sigma2, T, rng, y1_fallback) -> np.ndarray:
    y = np.empty(T)
    if abs(phi) < 1.0 - 1e-8:
        y[0] = c / (1.0 - phi) + np.sqrt(sigma2 / (1.0 - phi**2)) * rng.standard_normal()
    else:
        y[0] = y1_fallback
    innov = rng.standard_normal(T - 1) * np.sqrt(sigma2)
    for t in range(1, T):
        y[t] = c + phi * y[t - 1] + innov[t - 1]
    return y


def bootstrap_test(y: np.ndarray, B: int, draws: int, master_seed: int):
    """(supTS, expTS), their bootstrap p-values, and the B bootstrap
    statistics of each kind."""
    H, rhos = sample_nuisance_draws(draws, substream(master_seed, DOMAIN_NUISANCE))
    ys = standardize(np.asarray(y, dtype=float))
    scores, hess, theta = score_panel(ys)
    sup_c, psi = criteria(scores, hess, len(ys), H, rhos)
    sup0, exp0 = float(sup_c.max()), float(psi.mean())
    sup_b, exp_b = np.empty(B), np.empty(B)
    for b in range(B):
        yb = simulate_ar1(*theta, len(ys), substream(master_seed, DOMAIN_BOOTSTRAP, b), ys[0])
        scores_b, hess_b, _ = score_panel(standardize(yb))
        sup_c, psi = criteria(scores_b, hess_b, len(ys), H, rhos)
        sup_b[b], exp_b[b] = sup_c.max(), psi.mean()
    p_sup = (1 + np.count_nonzero(sup_b >= sup0)) / (B + 1)
    p_exp = (1 + np.count_nonzero(exp_b >= exp0)) / (B + 1)
    return (sup0, exp0), (p_sup, p_exp), (sup_b, exp_b)
