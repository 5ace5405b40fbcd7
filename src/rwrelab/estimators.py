"""Annealed Monte Carlo estimators and their analytic companions.

Annealed sampling means one fresh environment per trajectory (product of the
environment law and the walk law).  Replica r of a run with root seed s uses
environment streams keyed (s, "env", ..., r) and walk streams keyed by the
replica block of r, so ensembles are reproducible and independent of worker
count; aborted (range-capped) replicas are excluded and counted, never
silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .closed_forms import (VelocityResult, sigma2_iid_omega, sigma2_rcm,
                           sigma2_rcm_at_zero, velocity_coinflip,
                           velocity_iid_omega, velocity_rcm_continuous,
                           velocity_rcm_discrete)
from .environments import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv,
                           _gap_from_uniform)
from .exact import velocity_periodic
from .rng import derive_seed, generator
from .special import hurwitz_zeta, ndtr, zeta
from .walks import (DEFAULT_RANGE_CAP, EnsembleResult, ensemble_continuous,
                    ensemble_discrete)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo statistic with its sampling uncertainty."""

    mean: float
    std_error: float
    count: int
    ci95: tuple[float, float]
    excluded: int = 0

    @staticmethod
    def from_samples(x: np.ndarray, excluded: int = 0) -> "Estimate":
        x = np.asarray(x, dtype=float)
        if x.size < 2:
            raise ValueError("need at least 2 samples")
        mean = float(x.mean())
        se = float(x.std(ddof=1) / math.sqrt(x.size))
        return Estimate(mean, se, int(x.size), (mean - 1.96 * se, mean + 1.96 * se),
                        excluded)


@dataclass(frozen=True)
class ScalingFit:
    """Ordinary least squares on (log n, log value)."""

    slope: float
    intercept: float
    slope_std_error: float
    points: tuple[tuple[float, float], ...]

    @staticmethod
    def from_points(ns, values) -> "ScalingFit":
        ns = np.asarray(ns, dtype=float)
        values = np.asarray(values, dtype=float)
        if ns.size < 3:
            raise ValueError("need at least 3 points for a slope fit")
        if (ns <= 0).any() or (values <= 0).any():
            raise ValueError("log-log fit needs positive points")
        x = np.log(ns)
        y = np.log(values)
        xc = x - x.mean()
        slope = float(np.dot(xc, y) / np.dot(xc, xc))
        intercept = float(y.mean() - slope * x.mean())
        resid = y - (intercept + slope * x)
        var = float(np.dot(resid, resid) / (x.size - 2) / np.dot(xc, xc))
        return ScalingFit(slope, intercept, math.sqrt(var),
                          tuple(zip(ns, values)))


# ---------------------------------------------------------------------------
# analytic dispatch
# ---------------------------------------------------------------------------

def velocity_of_model(model, lam: float) -> VelocityResult:
    """Closed-form velocity for models that have one."""
    if isinstance(model, IIDOmega):
        return velocity_iid_omega(lam, model.rho.moment(1), model.rho.moment(-1))
    if isinstance(model, IIDConductance):
        if model.time_flavor == "discrete":
            return velocity_rcm_discrete(lam, model.c.moment(1), model.c.moment(-1))
        return velocity_rcm_continuous(lam, model.c.moment(-1))
    if isinstance(model, CoinFlip):
        a, b = model.a_plus.moment(1), model.a_plus.moment(-1)
        am, bm = model.a_minus.moment(1), model.a_minus.moment(-1)
        if abs(am - a) > 1e-9 * a or abs(bm - b) > 1e-9 * b:
            raise ValueError("coin-flip closed form assumes the two rate "
                             "sequences share E[a] and E[1/a]")
        return velocity_coinflip(lam, a, b)
    if isinstance(model, PeriodicEnv):
        return velocity_periodic(model, lam)
    raise ValueError(f"no closed-form velocity for {type(model).__name__}; "
                     "use velocity_jump_probe for the renewal environment")


def sigma2_of_model(model, lam: float) -> float | None:
    """Closed-form diffusion coefficient where the package has one, None
    where it has none.  For i.i.d. jump probabilities it is inf where
    E[rho] e^{-2 lam} < 1 <= E[rho^2] e^{-4 lam}: there v > 0 but the
    displacement's fluctuations are not Gaussian on the sqrt(n) scale
    (Kesten, Kozlov & Spitzer 1975, Compositio Math. 30)."""
    if isinstance(model, IIDConductance) and model.time_flavor == "discrete":
        a, b = model.c.moment(1), model.c.moment(-1)
        if lam == 0:
            return sigma2_rcm_at_zero(a, b)
        return sigma2_rcm(lam, a, b, model.c.moment(2), model.c.moment(-2)).sigma2
    if isinstance(model, IIDOmega):
        m1, m2 = model.rho.moment(1), model.rho.moment(2)
        q = math.exp(-2.0 * lam)
        if m1 * q < 1.0 <= m2 * q * q:
            return math.inf
        try:
            return sigma2_iid_omega(lam, m1, m2).sigma2
        except ValueError:
            return None
    return None


# ---------------------------------------------------------------------------
# ensemble helpers
# ---------------------------------------------------------------------------

def _run_ensemble(model, lam, replicas, seed, *, n=None, horizon=None,
                  workers=1, target_level=None, jump_budget=10**8,
                  range_cap=DEFAULT_RANGE_CAP, variation=False) -> EnsembleResult:
    if (n is None) == (horizon is None):
        raise ValueError("give exactly one of n (discrete) or horizon (continuous)")
    job = (model, lam, seed, n, horizon, target_level, jump_budget, range_cap,
           variation)
    if workers <= 1:
        return _ensemble_part(job + (0, replicas))
    bounds = np.linspace(0, replicas, workers + 1).astype(int)
    ranges = [(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    # imported here: it loads multiprocessing, which a run on one worker
    # does not need
    from concurrent.futures import ProcessPoolExecutor

    # fork starts every worker up front, so open no more than there are ranges
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        parts = list(pool.map(_ensemble_part, [job + r for r in ranges]))
    finals = np.concatenate([p.final_positions for p in parts])
    aborted = np.concatenate([p.aborted for p in parts])
    values, comp, var = (None if getattr(parts[0], f) is None
                         else np.concatenate([getattr(p, f) for p in parts])
                         for f in ("values", "compensator", "variation"))
    return EnsembleResult(finals, aborted, replicas, parts[0].elapsed, values,
                          comp, max(p.compensator_rounding for p in parts), var)


def _ensemble_part(args) -> EnsembleResult:
    """One replica range of an ensemble, run inline or in a pool worker."""
    (model, lam, seed, n, horizon, target_level, jump_budget, cap,
     variation, offset, count) = args
    if n is not None:
        return ensemble_discrete(model, lam, n, count, seed, range_cap=cap,
                                 replica_offset=offset, variation=variation)
    return ensemble_continuous(model, lam, horizon, count, seed, range_cap=cap,
                               jump_budget=jump_budget,
                               target_level=target_level,
                               replica_offset=offset)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def annealed_velocity(model, lam: float, *, n: int | None = None,
                      horizon: float | None = None, replicas: int, seed: int,
                      workers: int = 1,
                      range_cap: int = DEFAULT_RANGE_CAP) -> Estimate:
    """Mean of D_n/n (discrete time) or D_t/t (continuous time) over fresh
    environments, with standard error.

    D is the compensator of the walk's position (`EnsembleResult`):
    D_n = sum_{k<n} (2 omega+_lam(X_k) - 1), and D_t = sum_k (r+ - r-)_lam(Y_{T_k})
    (min(T_{k+1}, t) - T_k) over the jump times T_k.  X - D is a mean-zero
    martingale, so D/n (D/t) is an unbiased estimate of E[X_n]/n (E[Y_t]/t)
    with far less variance (conditional Monte Carlo of each step's direction
    and, in continuous time, of the time it comes; Asmussen & Glynn 2007,
    Stochastic Simulation, ch. V).  Its std_error adds, in quadrature, the
    ensemble's bound on the rounding of each lane's D, divided by n (t):
    2 n eps in discrete time, about 3 eps times the jump count times the
    mean rate in continuous time.  It is the whole error bar where D is the
    same on every lane (constant rates, period 2 in discrete time).
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    for name, length in (("n", n), ("horizon", horizon)):
        if length is not None and not 0 < length < math.inf:   # D is divided by it
            raise ValueError(f"{name} must be positive and finite, not {length}")
    res = _run_ensemble(model, lam, replicas, seed, n=n, horizon=horizon,
                        workers=workers, range_cap=range_cap)
    ok = ~res.aborted
    excluded = int(res.aborted.sum())
    if ok.sum() < 2:
        raise ValueError(f"{excluded} of {replicas} replicas hit "
                         "the range cap; nothing left to estimate")
    est = Estimate.from_samples(res.compensator[ok] / res.elapsed,
                                excluded=excluded)
    return _with_rounding(est, res.compensator_rounding / res.elapsed)


@dataclass(frozen=True)
class DiffusionResult:
    """Diffusivity of the recentered rescaled displacement
    Z = (X_n - v n)/sqrt(n), with a Kolmogorov-Smirnov distance of Z to the
    standard Gaussian.

    variance is the compensator split's estimate of E[Z^2], centred at v n;
    sample_variance is the plain sample variance of Z, centred at its sample
    mean, so the walk's own spread stays visible.  Their means differ by
    (E[X_n] - v n)^2/n (about 4e-8 at n = 1e4 on two-point {1, 2}
    conductances at lam = 1), far below either error bar."""

    variance: Estimate
    sample_variance: Estimate
    ks_distance: float
    v_used: float
    sigma2_ref: float | None


def _with_rounding(est: Estimate, rounding: float) -> Estimate:
    """est with a rounding bound added, in quadrature, to its std_error."""
    se = math.hypot(est.std_error, rounding)
    return Estimate(est.mean, se, est.count,
                    (est.mean - 1.96 * se, est.mean + 1.96 * se), est.excluded)


def _split_samples(res: EnsembleResult, centre: float) -> tuple[np.ndarray, float]:
    """Per lane not aborted, Y = (Q_n + d^2 + 2 M_n d)/n with d = D_n - centre
    and M_n = X_n - D_n (`EnsembleResult`), and a bound on the rounding of
    every Y.  E[M_n^2] = E[Q_n], so E[Y] = E[(X_n - centre)^2]/n.

    The bound adds up Q's rounding (4 r, r the compensator's bound), D's
    carried through M (2 |M| r) and 4 eps of each term and of the centre's
    weight 2 |X_n - centre| |centre|."""
    ok = ~res.aborted
    n, r = res.elapsed, res.compensator_rounding
    x, comp, q = res.final_positions[ok], res.compensator[ok], res.variation[ok]
    m = x - comp
    d = comp - centre
    y = (q + d * d + 2.0 * m * d) / n
    slack = 4.0 * r + 2.0 * np.abs(m) * r + 4.0 * _EPS * (
        q + d * d + 2.0 * np.abs(m * d) + 2.0 * np.abs(x - centre) * abs(centre))
    return y, float(slack.max()) / n


def annealed_diffusion(model, lam: float, n: int, replicas: int, seed: int, *,
                       v: float | None = None, workers: int = 1) -> DiffusionResult:
    """E[Z^2], Z = (X_n - v n)/sqrt(n), over fresh environments, split into
    the walk's compensator and martingale parts.

    X_n = M_n + D_n, D_n the compensator (`annealed_velocity`), and M_n a
    martingale with predictable quadratic variation
    Q_n = sum_{k<n} 4 omega+ omega-_lam(X_k), so E[M_n^2] = E[Q_n] (Hall &
    Heyde 1980, Martingale Limit Theory and Its Application).  The variance
    is the mean of Y = (Q_n + d^2 + 2 M_n d)/n with d = D_n - v n: Z^2 with
    M_n^2 replaced by its compensator, the noisiest part of Z^2 (conditional
    Monte Carlo, as in annealed_velocity).  It centres at v n; its std_error
    adds, in quadrature, a bound on the rounding of every lane's Y.  On a
    deterministic law it is exact up to rounding.  sample_variance is Z's
    plain sample variance, centred at the sample mean.

    v defaults to the model's closed-form velocity.  The KS diagnostic
    standardizes Z by the closed-form diffusivity when it is available,
    positive and finite (otherwise by the sample standard deviation).
    """
    if not n > 0:   # Z is divided by sqrt(n)
        raise ValueError("n must be positive")
    if v is None:
        v = velocity_of_model(model, lam).v
    res = _run_ensemble(model, lam, replicas, seed, n=n, workers=workers,
                        variation=True)
    excluded = int(res.aborted.sum())
    y, rounding = _split_samples(res, v * n)
    split = _with_rounding(Estimate.from_samples(y, excluded=excluded), rounding)
    z = (res.final_positions[~res.aborted] - v * n) / math.sqrt(n)
    m = z.size
    s2 = float(z.var(ddof=1))
    m4 = float(np.mean((z - z.mean()) ** 4))
    se = math.sqrt(max(m4 - (m - 3) / (m - 1) * s2 * s2, 0.0) / m)
    plain = Estimate(s2, se, m, (s2 - 1.96 * se, s2 + 1.96 * se), excluded)
    sigma2_ref = sigma2_of_model(model, lam)
    scale = math.sqrt(sigma2_ref) if sigma2_ref and math.isfinite(sigma2_ref) \
        else float(z.std(ddof=1))
    return DiffusionResult(split, plain, _ks_to_normal(z / scale), float(v),
                           sigma2_ref)


def _ks_to_normal(x: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample x to N(0, 1):
    the larger of max(i/n - Phi(x_(i))) and max(Phi(x_(i)) - (i-1)/n)."""
    cdf = ndtr(np.sort(x))
    n = cdf.size
    return float(max((np.arange(1.0, n + 1) / n - cdf).max(),
                     (cdf - np.arange(0.0, n) / n).max()))


@dataclass(frozen=True)
class EinsteinRow:
    """One field strength of the Einstein-relation slope table."""

    h: float
    analytic_slope: float
    bias_term: float
    mc_slope: float
    mc_slope_se: float
    mc_corrected: float
    noise_dominated: bool


@dataclass(frozen=True)
class EinsteinTable:
    limit: float                 # sigma2(0) = dv/dlam at 0
    rows: tuple[EinsteinRow, ...]


def einstein_slope(model: IIDConductance, h_grid, n: float, replicas: int,
                   seed: int, *, workers: int = 1) -> EinsteinTable:
    """One-sided difference quotients v(h)/h against their limit sigma2(0),
    from walks of n steps (discrete time) or up to horizon n (continuous
    time).

    Limits: 1/(E[c] E[1/c]) in discrete time, 2/E[1/c] in continuous time.
    bias_term is the exact v(h)/h - limit from the closed-form velocity
    ((ab-1)/(ab)^2 h + O(h^2) in discrete time, O(h^2) in continuous time,
    where the quotient is even in h); mc_corrected subtracts it, so it
    estimates the limit itself.  mc_slope_se is the velocity's standard
    error over |h|.  Rows where |v(h)| is within 3 standard errors of 0 are
    flagged noise_dominated.  Every h must be nonzero.
    """
    if not isinstance(model, IIDConductance):
        raise ValueError("the Einstein check is for conductance models")
    h_grid = list(h_grid)
    if any(h == 0 for h in h_grid):
        raise ValueError("the Einstein check needs nonzero field strengths h")
    a, b = model.c.moment(1), model.c.moment(-1)
    discrete = model.time_flavor == "discrete"
    limit = 1.0 / (a * b) if discrete else 2.0 / b
    rows = []
    for i, h in enumerate(h_grid):
        vres = velocity_of_model(model, h)
        bias = vres.v / h - limit
        est = annealed_velocity(
            model, h, replicas=replicas, seed=derive_seed(seed, "einstein", i),
            workers=workers, **({"n": n} if discrete else {"horizon": n}))
        mc_slope = est.mean / h
        rows.append(EinsteinRow(float(h), vres.v / h, bias, mc_slope,
                                est.std_error / abs(h), mc_slope - bias,
                                abs(vres.v) < 3.0 * est.std_error))
    return EinsteinTable(limit, tuple(rows))


# ---------------------------------------------------------------------------
# renewal environment estimators
# ---------------------------------------------------------------------------

def tau1_tail(gamma: float, n: int) -> float:
    """Exact P(tau_1 > n) = zeta(gamma, n+1)/zeta(gamma); gamma > 1."""
    return hurwitz_zeta(gamma, n + 1) / zeta(gamma)


@dataclass(frozen=True)
class RenewalScaling:
    """Product moments E[Z_0...Z_n] with their scaling fit and the exact
    lower-bound curve P(tau_1 > n)/2.

    Every estimate is positive (its exact part alone is), so the fit covers
    every n > 0 on the grid whenever there are at least three of them;
    fit_resolved lists those n.  truncation_bound bounds the mass the
    estimator drops per replica (every mean is low by at most this much).
    """

    grid: tuple[int, ...]
    estimates: tuple[Estimate, ...]
    fit: ScalingFit | None
    lower_bounds: tuple[float, ...]
    fit_resolved: tuple[int, ...]
    truncation_bound: float


# Renewal points past tau_1 followed per replica; the dropped terms of
# E[2^-N_n] weigh at most 2^-_MOMENT_TERMS in all.
_MOMENT_TERMS = 64
# Largest running gap maximum served by the prefix table; a larger maximum
# (probability ~ 65^-gamma per gap) has its big-jump sum taken directly.
_PREFIX_MAX = 64
# Replicas sampled per block; bounds the working arrays, not the results.
_MOMENT_CHUNK = 8192
# Replica rows drawn at once into a block's gap table: 0.5 MB of uniforms,
# so a chunk's temporaries stay in cache and a block peaks near its table.
_GAP_ROWS = 1024
# Block size of _causal_convolve.  64 was the fastest size tried at
# n = 1e4 and keeps OpenBLAS's packing buffer, and so the peak RSS, small.
_CONV_BLOCK = 64


def _causal_convolve(a, b) -> np.ndarray:
    """The first n terms of the convolution of two length-n arrays,
    (a*b)(i) = sum_{j<=i} a(j) b(i-j), as causal block-Toeplitz products.

    a is cut into blocks of B = _CONV_BLOCK entries, each reversed.  Output
    block I is sum_{L<=I} A[I-L] @ M_L over block lags L, where
    M_L[s, r] = b(L B + s + r - B + 1) (zero outside 0..n-1) is read from a
    sliding window of a zero-padded b.  Only the lower triangle of the full
    convolution is formed: about n^2/2 multiply-adds at matrix-product
    speed.  Each term is the same sum of at most n products as in
    np.convolve, added in another order, so for non-negative inputs its
    relative rounding stays within n eps (Higham 2002, Accuracy and
    Stability of Numerical Algorithms, sec. 4)."""
    n, blk = a.size, _CONV_BLOCK
    nb = -(-n // blk)
    rows = np.zeros(nb * blk)
    rows[:n] = a
    rows = rows.reshape(nb, blk)[:, ::-1].copy()
    padded = np.zeros((nb + 1) * blk)
    padded[blk - 1:blk - 1 + n] = b
    window = sliding_window_view(padded, blk)
    out = np.zeros((nb, blk))
    block = np.empty((blk, blk))      # contiguous, so the product is BLAS's
    for lag in range(nb):
        block[...] = window[lag * blk:(lag + 1) * blk]
        out[lag:] += rows[:nb - lag] @ block
    return out.ravel()[:n]


def _moment_tables(gamma: float, n_max: int):
    """Gap pmf p and the kernel C = w*T of renewal_product_moment, indexed by
    y = 0..n_max.  Both vanish at y = 0, so clipping a negative argument to 0
    reads the right value.  C is a causal block product (_causal_convolve):
    each C(y) sums its y + 1 non-negative products in another order than a
    full convolution, within the same (y + 1) eps relative rounding."""
    y = np.arange(n_max + 1, dtype=float)
    ge = np.zeros(n_max + 1)
    ge[1:] = y[1:] ** (-gamma)                    # P(G >= y)
    p = np.zeros(n_max + 1)
    p[1:] = ge[1:] - (y[1:] + 1.0) ** (-gamma)    # P(G = y)
    w = np.zeros(n_max + 1)
    w[1:] = (ge[1:] - 0.5 * p[1:]) / zeta(gamma)
    c = _causal_convolve(w, (y + 1.0) ** (-gamma))
    return p, c


def _kernel_tables(p, c):
    """The tables of the kernels C, the rows of c (K, n_max + 1), each
    vanishing at 0: c itself, D = p*C and the prefix
    Q[M] = sum_{g<=M} p(g) C(. - g), so that sum_{g>M} p(g) C(y-g) =
    D(y) - Q[M, y].  Kernel-major, Q shaped (K, _PREFIX_MAX + 1, n_max + 1).
    Each row of D is a causal block product (_causal_convolve) of
    non-negative terms, within (y + 1) eps relative of its exact sum."""
    n_max = c.shape[1] - 1
    d = np.empty_like(c)
    for k, ck in enumerate(c):
        d[k] = _causal_convolve(p, ck)
    q = np.zeros((c.shape[0], _PREFIX_MAX + 1, n_max + 1))
    top = min(_PREFIX_MAX, n_max)     # gaps beyond n_max add nothing
    for g in range(1, top + 1):
        q[:, g] = q[:, g - 1]
        q[:, g, g:] += p[g] * c[:, :n_max + 1 - g]
    q[:, top + 1:] = q[:, top:top + 1]
    return c, d, q


def _exact_part(gamma: float, grid: np.ndarray, c) -> np.ndarray:
    """A(n) + C(n)/2 of renewal_product_moment: the terms no sample enters."""
    return (hurwitz_zeta(gamma, grid + 1.0) - 0.5 * (grid + 1.0) ** (-gamma)) \
        / zeta(gamma) + 0.5 * c[grid]


def _gap_blocks(gamma: float, replicas: int, seed: int):
    """The renewal sampler: blocks of up to _MOMENT_CHUNK replicas, each a
    row of _MOMENT_TERMS - 2 i.i.d. gaps, returned as the transpose of a
    C-ordered (_MOMENT_TERMS - 2, m) table, so each gap column is contiguous.

    The table is filled _GAP_ROWS replica rows at a time: each chunk of
    uniforms is drawn row by row, in the order one (m, _MOMENT_TERMS - 2)
    draw would take them, and its gaps are written into the table's columns.
    So the gaps are the same integers as from one draw per block, while the
    uniforms, 1 - u and the integer gaps are chunk-sized and stay in cache
    rather than three block-sized arrays each passed over in memory: drawing
    a block peaks at its table plus about three chunks, 1.4-1.55 times the
    table's bytes at 8192 replicas (tracemalloc)."""
    rng = generator(seed, "renewal-moment")
    for done in range(0, replicas, _MOMENT_CHUNK):
        m = min(_MOMENT_CHUNK, replicas - done)
        table = np.empty((_MOMENT_TERMS - 2, m), dtype=np.int64)
        for a in range(0, m, _GAP_ROWS):
            b = min(a + _GAP_ROWS, m)
            chunk = rng.random((b - a, _MOMENT_TERMS - 2))
            table[:, a:b] = _gap_from_uniform(chunk.T, gamma)
        yield table.T


def _running_gaps(gaps: np.ndarray):
    """Yields (j, S', M, t) for j = 1.._MOMENT_TERMS-1: the sum, the maximum
    and the number of ties with the maximum of each row's first j-1 gaps.
    S' is updated in place, so use each state before asking for the next."""
    m = gaps.shape[0]
    s = np.zeros(m, dtype=np.int64)
    big = np.zeros(m, dtype=np.int64)
    ties = np.zeros(m, dtype=np.int64)
    for j in range(1, _MOMENT_TERMS):
        if j > 1:
            g = gaps[:, j - 2]
            ties = np.where(g > big, 1, ties + (g == big))
            big = np.maximum(big, g)
            s += g
        yield j, s, big, ties


def _sweep(gaps: np.ndarray, grid: np.ndarray, p, tables, sum_kernel=None):
    """One pass over the running gap states of a block of gaps (one row per
    replica), for two results; each accumulator adds once per state, in order.

    terms (K, grid.size, replicas): for each kernel C of tables
    (_kernel_tables) and n in grid, sum_{k>=2} 2^-k Z_k with
    Z_k = j [sum_{g>M} p(g) C(y-g) + p(M) C(y-M)/(t+1)], j = k-1,
    y = n - S', and S', M, t from _running_gaps.  The K kernels share the
    index arithmetic; a maximum past _PREFIX_MAX takes its sum directly.

    sums (None without sum_kernel): the replica sums of sum_kernel's terms at
    every n = 0..n_max, from weighted histograms.  Summed over replicas, the
    terms sum_{g>M} p(g) C(n-S'-g) are sum_x C(n-x) F(x) with
    F(x) = sum_g p(g) H(g-1, x-g), H(M, s) the weight of the states with
    maximum <= M and sum s; a maximum past _PREFIX_MAX adds its part of F
    directly.  The tie terms are a histogram of S'+M.  Sums past n_max go
    to a last bin that reaches no n."""
    n_max = p.size - 1
    width = n_max + 1
    cs, ds, qs = tables
    qs = qs.reshape(len(cs), (_PREFIX_MAX + 1) * width)
    terms = np.zeros((cs.shape[0], grid.size, gaps.shape[0]))
    if sum_kernel is not None:
        f = np.zeros(width + 1)
        h = np.zeros((_PREFIX_MAX + 1) * (width + 1))
    for j, s, big, ties in _running_gaps(gaps):
        coef = j * 0.5 ** (j + 1)
        top = np.minimum(big, _PREFIX_MAX)
        rare = np.flatnonzero(big > _PREFIX_MAX)
        tie = p.take(np.minimum(big, n_max)) / (ties + 1)
        y = grid[:, None] - s
        yc = np.maximum(y, 0)
        above = ds.take(yc, axis=1)
        above -= qs.take(top * width + yc, axis=1)
        for r in rare:
            for i, yy in enumerate(y[:, r]):
                span = yy - big[r] - 1
                for k, ck in enumerate(cs):
                    above[k, i, r] = np.dot(p[big[r] + 1:yy], ck[span:0:-1]) \
                        if span > 0 else 0.0
        part = cs.take(np.maximum(y - big, 0), axis=1)
        part *= tie
        part += above
        part *= coef
        terms += part
        if sum_kernel is None:
            continue
        h += coef * np.bincount(top * (width + 1) + np.minimum(s, width),
                                big <= _PREFIX_MAX, minlength=h.size)
        f += coef * np.bincount(np.minimum(s + big, width), tie,
                                minlength=width + 1)
        for r in rare[s[rare] + big[rare] < n_max]:
            f[s[r] + big[r] + 1:width] += coef * p[big[r] + 1:width - s[r]]
    if sum_kernel is None:
        return terms, None
    h = h.reshape(_PREFIX_MAX + 1, width + 1)[:, :width].cumsum(axis=0)
    f = f[:width]
    top = min(_PREFIX_MAX, n_max)
    for g in range(1, top + 1):
        f[g:] += p[g] * h[g - 1, :width - g]
    f += _causal_convolve(np.where(np.arange(width) > top, p, 0.0), h[-1])
    return terms, _causal_convolve(f, sum_kernel)


def renewal_product_moment(gamma: float, n_grid, replicas: int,
                           seed: int) -> RenewalScaling:
    """Estimate E[Z_0...Z_n] = E[2^-N_n], N_n = #(renewal points in [0,n]),
    on a grid of distinct n >= 0 over fresh stationary renewal environments,
    fit the log-log slope, and attach the exact pointwise lower bound.

    The moment is dominated by {tau_1 > n} (probability ~ n^(1-gamma)), which
    plain sampling almost never sees, so the estimator integrates the rare
    parts out exactly (conditional Monte Carlo after Asmussen & Kroese 2006,
    Adv. Appl. Prob. 38).  With gaps P(G >= j) = j^-gamma, T(j) = P(G > j)
    and w(m) = P(tau_1 = m)(1 - P(G=m)/(2 P(G>=m))), whose factor is
    E[2^-1{0 is a renewal point} | tau_1 = m],

        E[2^-N_n] = A(n) + C(n)/2 + sum_{k>=2} 2^-k E[C(n - S_{k-1})],

    A(n) = zeta(gamma, n+1)/zeta(gamma) - (n+1)^-gamma/(2 zeta(gamma)),
    C(y) = sum_{m=1}^{y} w(m) T(y-m), S_j a sum of j i.i.d. gaps.  The first
    two terms are exact.  Each sampled term integrates its largest gap out
    (uniform tie-break, unbiased by exchangeability), since a sum of
    heavy-tailed gaps lands near n mostly through one big gap; terms k > 64
    are dropped (truncation_bound = 2^-64).  The sampled terms of each block
    of replicas come from one _sweep of its running gap states, with C as
    its one kernel.  Each std_error adds, in quadrature, the worst-case
    rounding (n+1) eps |mean| of the length-n sums behind the exact part: it
    is the whole error bar at n <= 2, where nothing sampled reaches.  The
    tables C and D are causal block products (_causal_convolve), which add
    their terms in blocks rather than in np.convolve's order; every term is
    non-negative, so any order of a sum of n + 1 of them keeps its relative
    rounding within (n+1) eps (Higham 2002, sec. 4) and the bound holds.
    """
    if not gamma > 2:
        raise ValueError("gamma must exceed 2")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    grid = np.asarray(sorted(int(v) for v in n_grid), dtype=np.int64)
    if grid.size == 0 or grid[0] < 0 or (np.diff(grid) == 0).any():
        raise ValueError("the grid needs one or more distinct n >= 0")
    p, c = _moment_tables(gamma, int(grid[-1]))
    exact_part = _exact_part(gamma, grid, c)
    tables = _kernel_tables(p, c[None])
    # one contiguous row per n, so the means are pairwise sums
    sampled = np.concatenate([_sweep(gaps, grid, p, tables)[0][0]
                              for gaps in _gap_blocks(gamma, replicas, seed)],
                             axis=1)
    means = exact_part + sampled.mean(axis=1)
    rounding = (grid + 1.0) * _EPS * means
    ses = np.hypot(sampled.std(axis=1, ddof=1) / math.sqrt(replicas), rounding)
    estimates = tuple(
        Estimate(float(mu), float(se), replicas,
                 (float(mu - 1.96 * se), float(mu + 1.96 * se)))
        for mu, se in zip(means, ses))
    pos = grid > 0
    fit = ScalingFit.from_points(grid[pos], means[pos]) if pos.sum() >= 3 else None
    bounds = tuple(tau1_tail(gamma, int(nn)) / 2.0 for nn in grid)
    return RenewalScaling(tuple(int(v) for v in grid), estimates, fit, bounds,
                          tuple(int(v) for v in grid[pos]),
                          0.5 ** _MOMENT_TERMS)


@dataclass(frozen=True)
class ProbeRow:
    """Classification of the annealed crossing series at one field value."""

    lam: float
    growth_factor: float         # a e^{-2 lam}
    classification: str          # converging | diverging | inconclusive
    v_estimate: Estimate | None
    term_slope: float | None
    term_slope_se: float | None


def velocity_jump_probe(a: float, gamma: float, lam_grid, replicas: int,
                        seed: int, i_max: int = 512) -> list[ProbeRow]:
    """Classify E[crossing series](lam) near the jump threshold
    lam_plus = log(a)/2 and estimate v where it converges.

    Away from the threshold the geometric factor w = a e^{-2 lam} settles the
    classification exactly (the exact lower bound P(tau_1 > i)/2 forces
    divergence for factors > 1; products are <= 1 so factors < 1 give
    summability).  At the threshold the power-law slope of E[Z_0...Z_i],
    fit over i in unique(geomspace(16, i_max, 24)), decides: slope < -1
    within 3 fit standard errors converges, > -1 diverges, anything else is
    reported inconclusive.  Where the series converges,
    v = 1/(1 + 2 sum_{i<=i_max} w^{i+1} E[Z_0...Z_i]); truncating it at
    i_max biases v up by at most O(1/i_max).

    The moments come from renewal_product_moment's conditional estimator
    and sampler (the same gaps at the same seed), so every one is positive.
    Since sum_i w^{i+1} C(i - x) = K_w(i_max - x) with K_w the convolution
    of C with the reversed weights, a replica's weighted sum of sampled
    terms is its sampled term at n = i_max with K_w in place of C: two
    table lookups per term.  One _sweep per block of replicas walks the
    running gap states once for every K_w at once and for the moment means
    of the fit, replica sums taken from histograms of the same states.
    """
    if not (a > 0 and gamma > 2):
        raise ValueError("need a > 0 and gamma > 2")
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    lam_grid = [float(v) for v in lam_grid]
    factors = np.array([a * math.exp(-2.0 * lam) for lam in lam_grid])
    full = np.arange(i_max + 1)
    p, c = _moment_tables(gamma, i_max)
    exact = _exact_part(gamma, full, c)
    kernels, t_exact = [], []
    for g in factors[factors <= 1.0]:
        weights = g ** (full + 1.0)
        kernels.append(_causal_convolve(c, weights[::-1]))
        t_exact.append(float(np.dot(weights, exact)))
    tables = _kernel_tables(p, np.reshape(kernels, (-1, i_max + 1)))
    sums = np.zeros(i_max + 1)
    parts = []
    for gaps in _gap_blocks(gamma, replicas, seed):
        terms, block_sums = _sweep(gaps, full[-1:], p, tables, c)
        sums += block_sums
        parts.append(terms[:, 0])
    sampled = np.concatenate(parts, axis=1)
    means = exact + sums / replicas
    igrid = np.unique(np.geomspace(16, max(i_max, 16), 24).astype(np.int64))
    igrid = igrid[igrid <= i_max]
    rows: list[ProbeRow] = []
    k = 0
    for lam, g in zip(lam_grid, factors):
        slope = slope_se = None
        if abs(g - 1.0) <= 1e-12:
            if igrid.size >= 3:
                fit = ScalingFit.from_points(igrid, means[igrid])
                slope, slope_se = fit.slope, fit.slope_std_error
            if slope is not None and slope + 3.0 * slope_se < -1.0:
                cls = "converging"
            elif slope is not None and slope - 3.0 * slope_se > -1.0:
                cls = "diverging"
            else:
                cls = "inconclusive"
        elif g > 1.0:
            cls = "diverging"
        else:
            cls = "converging"
        v_est = None
        if g <= 1.0:
            t = Estimate.from_samples(t_exact[k] + sampled[k])
            k += 1
            if cls == "converging":
                denom = 1.0 + 2.0 * t.mean
                v = 1.0 / denom
                se_v = 2.0 * t.std_error / (denom * denom)
                v_est = Estimate(v, se_v, replicas,
                                 (v - 1.96 * se_v, v + 1.96 * se_v))
        rows.append(ProbeRow(float(lam), float(g), cls, v_est, slope, slope_se))
    return rows


# ---------------------------------------------------------------------------
# first-passage ensemble (Lemma-B.1-style identities)
# ---------------------------------------------------------------------------

def annealed_tau1(model, lam: float, replicas: int, seed: int, *,
                  jump_budget: int = 10**6) -> Estimate:
    """Mean first-passage time to site 1 for continuous-time walks over fresh
    environments; matches the annealed crossing-series mean in the ballistic
    regime."""
    res = _run_ensemble(model, lam, replicas, seed, horizon=math.inf,
                        target_level=1, jump_budget=jump_budget)
    ok = ~res.aborted & np.isfinite(res.values)
    return Estimate.from_samples(res.values[ok],
                                 excluded=int(replicas - ok.sum()))
