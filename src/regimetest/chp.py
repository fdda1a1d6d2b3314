"""Information-matrix benchmark tests for Markov-switching parameters.

For the AR(1) null fitted by OLS (conditional ML), the per-observation
Gaussian log density

    l_t = -1/2 log(2 pi s2) - (y_t - c - phi y_{t-1})^2 / (2 s2)

has closed-form first and second derivatives in theta = (c, phi, s2).  A
nuisance direction ``h`` (unit vector, middle component zero) and a chain
serial-correlation parameter ``rho`` define the second-order expansion term

    mu2_t(h, rho) = 1/2 h' [ l2_t + l1_t l1_t' + 2 sum_{s<t} rho^{t-s} l1_t l1_s' ] h

whose scaled sum Gamma = sum_t mu2_t / sqrt(T), standardized by the residual
norm of an OLS projection of mu2_t on the scores, yields a supremum-type and
an exponential-type statistic over sampled (h, rho).  Their null
distributions depend on nuisance parameters, so significance is assessed by
a parametric bootstrap from the fitted linear model.

One criteria kernel serves every caller.  It takes k series at once, fits
the AR(1) null to each in closed form and evaluates every nuisance draw
together: because h[1] = 0, the quadratic term and the score path are one
matrix product each, the rho-weighted cross term is one recursion over time,
and the projection is one rank-aware QR per series.  In the bootstrap test
the standardized data is row 0 above B standardized samples from that same
closed-form AR(1) fit of it, and the B + 1 rows take one pass at two levels
of blocks.  The kernel runs over the blocks of
:func:`~regimetest.moments.row_blocks` in one reused work buffer.
Consecutive kernel blocks form row chunks: a chunk's AR(1) fits, scores and
score bases are set up in one call before its blocks run, and its
criteria (the standardization, the Psi weight, the row max and mean) are
finished in one call after them.  Each row is computed independently of its
block and its chunk, so every result depends only on ``(seed, B, draws)``.

A study replication needs only the decisions p <= alpha.  Its pass stops
after the first chunk at which both bootstrap p-values over the rows so
far exceed alpha: the count of samples at or above the data only grows, so
no later row can change either decision (the sequential Monte Carlo test of
Besag & Clifford 1991).  :func:`chp_bootstrap_test` runs the same loop at
alpha = 1, where that never happens, and evaluates all B samples.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._seeding import DOMAIN_BOOTSTRAP, DOMAIN_NUISANCE, normal_rows, substream
from .moments import finite_series, row_blocks

logger = logging.getLogger(__name__)

RHO_BOUND = 0.7

#: A row chunk of :func:`_row_chunks` takes whole kernel blocks while its
#: series hold at most ``BLOCK_ELEMENTS // _SERIES_SHARE`` values.  Its series
#: set-up peaks at about 13 arrays of that size, so it stays well inside the
#: kernel's ``2 * BLOCK_ELEMENTS`` work buffer whatever the number of draws.
_SERIES_SHARE = 32


@dataclass(frozen=True)
class CHPReport:
    """Benchmark test outcome with bootstrap p-values."""

    supTS: float
    expTS: float
    bootstrap_p_sup: float
    bootstrap_p_exp: float
    B: int
    draws: int
    seed: int


def _standardize_rows(Y: np.ndarray) -> np.ndarray:
    """Center and scale every row of a (k, T) block by its own mean and
    standard deviation.

    The test applies this to the data and to every bootstrap sample, which
    makes the reported statistics exactly invariant to affine transformations
    of the observations.
    """
    sd = Y.std(axis=1, keepdims=True)
    if np.any(sd <= 0.0):
        raise ValueError("cannot standardize a constant series")
    return (Y - Y.mean(axis=1, keepdims=True)) / sd


def _ar1_fit(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form OLS intercept/slope of every row of a (k, T) block, with
    the 1/n residual-variance divisor, which zeroes all three score sums at
    the fitted point.  Returns c, phi, s2 as (k, 1) columns and the (k, n)
    residuals."""
    if Y.shape[1] < 10:
        raise ValueError("need at least 10 observations")
    x, z = Y[:, :-1], Y[:, 1:]
    xm = x.mean(axis=1, keepdims=True)
    zm = z.mean(axis=1, keepdims=True)
    xc = x - xm
    sxx = (xc * xc).sum(axis=1, keepdims=True)
    if np.any(sxx <= 0.0):
        raise ValueError("degenerate regression: constant lagged series")
    phi = (xc * (z - zm)).sum(axis=1, keepdims=True) / sxx
    c = zm - phi * xm
    eps = z - c - phi * x
    s2 = (eps * eps).sum(axis=1, keepdims=True) / x.shape[1]
    if not np.all(np.isfinite(s2) & (s2 > 0.0)):
        raise ValueError("degenerate regression: zero residual variance")
    return c, phi, s2, eps


def _score_columns(eps: np.ndarray, ylag: np.ndarray, s2: np.ndarray) -> list[np.ndarray]:
    """The three per-observation scores d l_t / d(c, phi, s2)."""
    return [eps / s2, eps * ylag / s2, -0.5 / s2 + eps**2 / (2.0 * s2**2)]


def _curvature_hessian(eps: np.ndarray, s2: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Hessian entries (0, 0), (0, 2) and (2, 2), the ones a nuisance
    direction with h[1] = 0 reads."""
    return -1.0 / s2, -eps / s2**2, 0.5 / s2**2 - eps**2 / s2**3


# ---------------------------------------------------------------------------
# The criteria kernel.  A block holds k series: time-major scores and
# curvature, (n, k, 3), and an orthonormal basis of each series' score
# columns, (k, n, p).  mu2 paths are (n, k, d) for d nuisance draws.


def _curvature(scores: np.ndarray, h00, h02, h22) -> np.ndarray:
    """The entries of l2_t + l1_t l1_t' that h' . h reads when h[1] = 0:
    (0, 0), (0, 2) and (2, 2), stacked on the last axis."""
    s0, sv = scores[..., 0], scores[..., 2]
    return np.stack([h00 + s0 * s0, h02 + s0 * sv, h22 + sv * sv], axis=-1)


def _score_basis(X: np.ndarray) -> np.ndarray:
    """Orthonormal bases (k, n, p) of the column spaces of k regressor
    matrices (k, n, p), for OLS projections without an intercept.

    Collinear columns, detected from the diagonal of R in a QR
    factorization, are dropped (and logged) and their basis columns set to
    zero; projections are unaffected by which basis of the column space
    survives.
    """
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    tol = diag.max(axis=1, keepdims=True) * max(X.shape[1:]) * np.finfo(float).eps
    for i in np.flatnonzero((diag <= tol).any(axis=1)):
        keep = diag[i] > tol[i]
        logger.warning(
            "projection regressors rank deficient; dropped columns %s",
            np.flatnonzero(~keep).tolist(),
        )
        Q[i] = 0.0
        Q[i][:, : keep.sum()] = np.linalg.qr(X[i][:, keep])[0]
    return Q


def _series_block(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block of the AR(1) fits to the rows of a (k, T) array of series."""
    _, _, s2, eps = _ar1_fit(Y)
    X = np.stack(_score_columns(eps, Y[:, :-1], s2), axis=-1)
    scores = X.transpose(1, 0, 2)
    curv = _curvature(scores, *(h.T for h in _curvature_hessian(eps, s2)))
    return scores, curv, _score_basis(X)


def _draw_matrices(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (2, d) and (3, d) right-hand sides that map a block's scores to
    g_t = h' l1_t and its curvature to the quadratic term, for draws ``H``."""
    h0, h2 = H[:, 0], H[:, 2]
    return np.stack([h0, h2]), np.stack([0.5 * h0 * h0, h0 * h2, 0.5 * h2 * h2])


def _mu2_block(
    scores: np.ndarray, curv: np.ndarray, G: np.ndarray, C: np.ndarray, R: np.ndarray,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """mu2_t for every series and draw; shape (n, k, d).

    With h[1] = 0, g_t = h' l1_t needs the scores' columns 0 and 2, and
    h' l2_t h + g_t^2 the three curvature entries, so both are one matrix
    product with the :func:`_draw_matrices` ``G`` and ``C``.  The
    rho-weighted cross term uses the running accumulator
    ``a_t = rho (a_{t-1} + g_{t-1})``, so the cost is linear in the sample
    size; ``R`` holds the draws' rhos tiled to the block's k d columns (or
    more).  The recursion runs in the rows that end up holding mu2, so no
    separate accumulator array is built.  ``work`` is scratch of shape
    (2, >= n k d); mu2 is a view of its second row.
    """
    n, k, _ = scores.shape
    width = k * G.shape[1]
    size = n * width
    if work is None:
        work = np.empty((2, size))
    g, mu2 = work[0, :size].reshape(n, width), work[1, :size].reshape(n, width)
    np.matmul(scores[..., [0, 2]].reshape(n * k, 2), G, out=g.reshape(n * k, -1))
    # the accumulator runs in mu2's rows, which then take the cross term g_t a_t;
    # the step rows are flat views built once, since a step's two ufunc calls
    # span only k d elements and their fixed cost dominates
    R = R[:width]
    mu2[0] = 0.0
    steps = list(mu2)
    for prev, g_prev, cur in zip(steps, list(g), steps[1:]):
        np.add(prev, g_prev, cur)
        np.multiply(cur, R, cur)
    mu2 *= g
    # g is spent: its rows take the quadratic term 1/2 (h' l2_t h + g_t^2)
    np.matmul(curv.reshape(n * k, 3), C, out=g.reshape(n * k, -1))
    mu2 += g
    return mu2.reshape(n, k, -1)


def _projection_sums(
    scores: np.ndarray, curv: np.ndarray, Q: np.ndarray, T: int, G: np.ndarray,
    C: np.ndarray, R: np.ndarray, work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gamma, the residual sum of squares of the projection on the scores
    and the total sum of squares of every (series, draw) mu2 path of a
    block; three (k, d) arrays.  The arguments are as for
    :func:`_mu2_block`, with ``Q`` the block's score bases."""
    mu2 = _mu2_block(scores, curv, G, C, R, work)
    Gam = mu2.sum(axis=0) / np.sqrt(T)
    paths = mu2.transpose(1, 0, 2)
    # residuals of the projections on the scores, in the scratch row that
    # held g; einsum sums the squares over time in order, as .sum(axis=1)
    # would, without a squared copy
    resid = work[0, : mu2.size].reshape(paths.shape)
    np.matmul(Q, Q.transpose(0, 2, 1) @ paths, out=resid)
    np.subtract(paths, resid, out=resid)
    ss = np.einsum("knd,knd->kd", resid, resid)
    total = np.einsum("knd,knd->kd", paths, paths)
    return Gam, ss, total


def _criteria(Gam: np.ndarray, ss: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw supremum criterion and exponential weight Psi from the
    :func:`_projection_sums` of any number of series; two (k, d) arrays."""
    # a path (numerically) inside the score span has no residual variation to
    # standardize by; such draws contribute 0 to the sup and weight 1
    nonzero = ss > 1.0e-24 * total
    gnorm = np.zeros_like(Gam)
    gnorm[nonzero] = Gam[nonzero] / np.sqrt(ss[nonzero])
    sup_criteria = 0.5 * np.maximum(0.0, gnorm) ** 2
    sup_criteria[~nonzero] = 0.0
    psi = np.where(nonzero, _psi_weight(gnorm), 1.0)
    return sup_criteria, psi


def sample_nuisance_draws(count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (h, rho) pairs: h uniform on the unit circle in the (mean,
    variance) coordinates, rho uniform on [-0.7, 0.7]."""
    if count < 1:
        raise ValueError("need at least one nuisance draw")
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    H = np.column_stack([np.cos(angles), np.zeros(count), np.sin(angles)])
    rhos = rng.uniform(-RHO_BOUND, RHO_BOUND, size=count)
    return H, rhos


# ---------------------------------------------------------------------------
# The Psi weight, from + - * /, rint and ldexp alone: numpy's exp and log pick
# their loops per CPU, these ufuncs round the same everywhere.

#: Cody's (1969, Math. Comp. 23) rational approximations as in his CALERF,
#: (numerator, denominator) coefficients from the highest degree down: erf(u)
#: / u in u^2 for |u| <= 0.46875, erfcx(u) in u on (0.46875, 4], and
#: (1/sqrt(pi) - u erfcx(u)) u^2 in z = 1/u^2 above 4
_ERF_SMALL = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERFCX_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFCX_LARGE = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_ERF_THRESH = 0.46875
_INV_SQRT_PI = 5.6418958354775628695e-1

#: fdlibm's Cody-Waite split of ln 2 (the high part has 32 significant bits,
#: so n * _LN2_HI is exact) and its Remez coefficients for exp on
#: |r| <= ln(2) / 2, from the highest degree down
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LOG2_E = 1.44269504088896338700e00
_EXP_REMEZ = (4.13813679705723846039e-08, -1.65339022054652515390e-06,
              6.61375632143793436117e-05, -2.77777777770155933842e-03,
              1.66666666666666019037e-01)


def _horner(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest degree first) at x."""
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    return acc + coeffs[-1]


def _exp(hi: np.ndarray, lo: np.ndarray | float = 0.0) -> np.ndarray:
    """exp(hi + lo) for |lo| at most an ulp of hi, within an ulp: fdlibm's
    exp, the reduction hi + lo = n ln 2 + r carried in two parts."""
    n = np.rint(hi * _LOG2_E)
    r_hi = hi - n * _LN2_HI
    r_lo = n * _LN2_LO - lo
    r = r_hi - r_lo
    c = r - r * r * _horner(r * r, _EXP_REMEZ)
    return np.ldexp(1.0 - ((r_lo - r * c / (2.0 - c)) - r_hi), n.astype(np.int32))


def _exact_square(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x^2 as hi + lo exactly (Dekker's product by Veltkamp's split), for
    |x| < 2^500."""
    split = 134217729.0 * x  # 2^27 + 1
    x_hi = split - (split - x)
    x_lo = x - x_hi
    hi = x * x
    return hi, ((x_hi * x_hi - hi) + 2.0 * x_hi * x_lo) + x_lo * x_lo


def _erfcx(u: np.ndarray) -> np.ndarray:
    """The scaled complementary error function exp(u^2) erfc(u) for u >=
    -0.46875 (or NaN), by Cody's approximations."""
    y = np.abs(u)
    out = np.empty_like(y)
    small, mid = y <= _ERF_THRESH, (y > _ERF_THRESH) & (y <= 4.0)
    large = ~(small | mid)
    s = u[small]
    s2 = s * s
    out[small] = _exp(s2) * (1.0 - s * np.divide(*(_horner(s2, c) for c in _ERF_SMALL)))
    ym = y[mid]
    out[mid] = np.divide(*(_horner(ym, c) for c in _ERFCX_MID))
    yl = y[large]
    z = 1.0 / yl / yl  # not 1 / (yl * yl), which overflows from yl = 1e154 on
    out[large] = (_INV_SQRT_PI - z * np.divide(*(_horner(z, c) for c in _ERFCX_LARGE))) / yl
    return out


def _psi_weight(g: np.ndarray) -> np.ndarray:
    """sqrt(2 pi) exp((g-1)^2 / 2) Phi(g - 1), evaluated without the 0 * inf
    breakdown of the naive product in the deep left tail.

    With x = g - 1 and u = -x / sqrt(2), the product equals sqrt(pi/2)
    erfcx(u), which :func:`_erfcx` gives for u >= -0.46875.  Below, Phi(x) =
    1 - Phi(-x) gives sqrt(2 pi) exp(x^2 / 2) - sqrt(pi/2) erfcx(-u), that is
    sqrt(pi/2) (2 exp(u^2) - erfcx(-u)), with x^2 / 2 formed exactly from x;
    the weight overflows to inf from about g = 38.7.  Against 50-digit values
    at the same double g it is within 6 ulps wherever it is finite.
    """
    x = np.asarray(g, dtype=float) - 1.0
    u = -x / np.sqrt(2.0)
    right = u < -_ERF_THRESH
    psi = _erfcx(np.where(right, -u, u))
    psi *= np.sqrt(np.pi / 2.0)
    # past x = 40 the weight is inf anyway; the cap keeps n of _exp an integer
    hi, lo = _exact_square(np.minimum(x[right], 40.0))
    with np.errstate(over="ignore"):
        psi[right] = np.sqrt(2.0 * np.pi) * _exp(0.5 * hi, 0.5 * lo) - psi[right]
    return psi


# ---------------------------------------------------------------------------
# Parametric bootstrap.


def _bootstrap_paths(
    theta: tuple[float, float, float], T: int, B: int, master_seed: int, y1_fallback: float
) -> np.ndarray:
    """B linear AR(1) paths with a stationary initial draw, time-major
    (T, B).  Sample b draws from its own stream, first y_1 and then the
    T - 1 innovations, and one recursion over time advances all B paths.
    ``standard_normal(T)`` is the scalar draw followed by
    ``standard_normal(T - 1)``, so one (B, T) block of normals gives both;
    without a stationary distribution (a near-unit-root fit) y_1 is the
    fallback and the innovations are the first T - 1 normals."""
    c, phi, sigma2 = theta
    Z = normal_rows(master_seed, DOMAIN_BOOTSTRAP, rows=B, T=T).T
    Y = np.empty((T, B))
    if abs(phi) < 1.0 - 1e-8:
        Y[0] = c / (1.0 - phi) + np.sqrt(sigma2 / (1.0 - phi**2)) * Z[0]
        innov = Z[1:]
    else:
        Y[0] = y1_fallback
        innov = Z[:-1]
    innov *= np.sqrt(sigma2)
    for t in range(1, T):
        Y[t] = c + phi * Y[t - 1] + innov[t - 1]
    return Y


def _row_chunks(k: int, T: int, d: int) -> list[list[slice]]:
    """The ``row_blocks`` kernel blocks of k series of length T under d
    draws, in consecutive row chunks of whole blocks (at least one each)."""
    blocks = row_blocks(k, (T - 1) * d)
    per_chunk = max(1, row_blocks(k, _SERIES_SHARE * T)[0].stop // blocks[0].stop)
    return [blocks[i : i + per_chunk] for i in range(0, len(blocks), per_chunk)]


def _bootstrap_p(stat: np.ndarray, B: int) -> float:
    """The bootstrap p-value (1 + #{boot >= data}) / (B + 1) of the data's
    ``stat[0]`` against the samples ``stat[1:]``.  Over the first rows of
    the B samples it is a lower bound of the p-value over all of them: the
    count only grows as rows are added."""
    return (1 + int(np.count_nonzero(stat[1:] >= stat[0]))) / (B + 1)


def _settled(stat: np.ndarray, B: int, alpha: float) -> bool:
    """Whether the decision p <= alpha is final after the rows of ``stat``:
    their :func:`_bootstrap_p` already exceeds alpha, and the p-value over
    all B samples can only be larger."""
    return _bootstrap_p(stat, B) > alpha


def _row_statistics(
    Y: np.ndarray, H: np.ndarray, rhos: np.ndarray, alpha: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """supTS and expTS of the rows of a (k, T) array of series, row 0 the
    data above k - 1 bootstrap samples, through the rows it evaluated.

    The kernel runs block by block in one reused work buffer.  The AR(1)
    fits and score bases of a :func:`_row_chunks` chunk are set up in one
    call before its blocks run, and its criteria are finished in one call
    after them.  After each chunk the pass stops once both decisions
    ``p <= alpha`` are :func:`_settled`.  At ``alpha = 1`` that never
    happens and every row is evaluated."""
    T, d = Y.shape[1], len(rhos)
    B = len(Y) - 1
    chunks = _row_chunks(len(Y), T, d)
    step = chunks[0][0].stop  # the first block is the largest
    work = np.empty((2, step * (T - 1) * d))
    G, C = _draw_matrices(H)
    R = np.tile(rhos, step)
    sup, exp = np.empty(len(Y)), np.empty(len(Y))
    for blocks in chunks:
        chunk = slice(blocks[0].start, blocks[-1].stop)
        scores, curv, Q = _series_block(Y[chunk])
        sums = np.empty((3, chunk.stop - chunk.start, d))
        for block in blocks:
            rows = slice(block.start - chunk.start, block.stop - chunk.start)
            sums[:, rows] = _projection_sums(
                scores[:, rows], curv[:, rows], Q[rows], T, G, C, R, work
            )
        sup_criteria, psi = _criteria(*sums)
        sup[chunk] = sup_criteria.max(axis=1)
        exp[chunk] = psi.mean(axis=1)
        done = chunk.stop
        if _settled(sup[:done], B, alpha) and _settled(exp[:done], B, alpha):
            break
    return sup[:done], exp[:done]


def _bootstrap_statistics(
    y: np.ndarray, B: int, draws: int, master_seed: int, alpha: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """supTS and expTS of the standardized data (row 0) and of its bootstrap
    samples, through the rows that :func:`_row_statistics` evaluated at
    ``alpha``.  All B paths are drawn before the pass."""
    y = finite_series(y)
    if B < 2:
        raise ValueError("B must be at least 2")
    H, rhos = sample_nuisance_draws(draws, substream(master_seed, DOMAIN_NUISANCE))

    ys = _standardize_rows(y[None])
    c, phi, s2, _ = _ar1_fit(ys)
    theta = (float(c[0, 0]), float(phi[0, 0]), float(s2[0, 0]))
    paths = _bootstrap_paths(theta, ys.shape[1], B, master_seed, ys[0, 0])
    Y = np.vstack([ys, _standardize_rows(np.ascontiguousarray(paths.T))])
    return _row_statistics(Y, H, rhos, alpha)


def chp_bootstrap_test(
    y: np.ndarray,
    B: int = 200,
    draws: int = 200,
    master_seed: int = 0,
) -> CHPReport:
    """Benchmark tests with parametric-bootstrap p-values.

    ``B`` artificial samples are generated from the linear AR(1) that
    :func:`_ar1_fit` fits to the standardized data, the fit the kernel makes
    of row 0; the same nuisance draws are reused for the data and every
    bootstrap sample.  The data is row 0 of one blocked kernel pass over the
    B + 1 standardized series, all of them evaluated.  Bootstrap p-values
    use the (1 + #{boot >= data}) / (B + 1) convention.  A non-finite value
    is a ``ValueError``.
    """
    sup, exp = _bootstrap_statistics(y, B, draws, master_seed)
    return CHPReport(
        supTS=float(sup[0]),
        expTS=float(exp[0]),
        bootstrap_p_sup=_bootstrap_p(sup, B),
        bootstrap_p_exp=_bootstrap_p(exp, B),
        B=B,
        draws=draws,
        seed=master_seed,
    )
