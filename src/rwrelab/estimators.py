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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _hurwitz_zeta
from scipy.stats import kstest

from .closed_forms import (VelocityResult, sigma2_iid_omega, sigma2_rcm,
                           sigma2_rcm_at_zero, velocity_coinflip,
                           velocity_iid_omega, velocity_rcm_continuous,
                           velocity_rcm_discrete)
from .environments import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv,
                           Renewal, _gap_from_uniform)
from .exact import velocity_periodic
from .rng import derive_seed, generator
from .walks import (DEFAULT_RANGE_CAP, EnsembleResult, ensemble_continuous,
                    ensemble_discrete)


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
    """Closed-form diffusion coefficient where the package has one."""
    if isinstance(model, IIDConductance) and model.time_flavor == "discrete":
        a, b = model.c.moment(1), model.c.moment(-1)
        if lam == 0:
            return sigma2_rcm_at_zero(a, b)
        return sigma2_rcm(lam, a, b, model.c.moment(2), model.c.moment(-2)).sigma2
    if isinstance(model, IIDOmega):
        m1, m2 = model.rho.moment(1), model.rho.moment(2)
        try:
            return sigma2_iid_omega(lam, m1, m2).sigma2
        except ValueError:
            return None
    return None


# ---------------------------------------------------------------------------
# ensemble helpers
# ---------------------------------------------------------------------------

def _window_hint(model, lam: float, drift_time: float,
                 steps: float) -> tuple[int, int]:
    try:
        v = velocity_of_model(model, lam).v
    except ValueError:
        v = 0.0
    center = v * drift_time
    spread = 8.0 * math.sqrt(max(steps, 1.0)) + 256.0
    return (int(min(0.0, center) - spread), int(max(0.0, center) + spread))


def _run_ensemble(model, lam, replicas, seed, *, n=None, horizon=None,
                  workers=1, target_level=None, jump_budget=10**8,
                  range_cap=None) -> EnsembleResult:
    if (n is None) == (horizon is None):
        raise ValueError("give exactly one of n (discrete) or horizon (continuous)")
    if target_level is not None:
        hint = (-256, target_level + 256)
    elif n is not None:
        hint = _window_hint(model, lam, n, n)
    else:
        hint = _window_hint(model, lam, horizon, horizon * _rate_scale(model, lam))
    cap = DEFAULT_RANGE_CAP if range_cap is None else range_cap
    job = (model, lam, seed, n, horizon, target_level, jump_budget, hint, cap)
    if workers <= 1:
        return _ensemble_part(job + (0, replicas))
    bounds = np.linspace(0, replicas, workers + 1).astype(int)
    ranges = [(int(a), int(b - a)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_ensemble_part, [job + r for r in ranges]))
    finals = np.concatenate([p.final_positions for p in parts])
    aborted = np.concatenate([p.aborted for p in parts])
    values = (np.concatenate([p.values for p in parts])
              if parts[0].values is not None else None)
    return EnsembleResult(finals, aborted, replicas, parts[0].elapsed, values)


def _ensemble_part(args) -> EnsembleResult:
    """One replica range of an ensemble, run inline or in a pool worker."""
    (model, lam, seed, n, horizon, target_level, jump_budget, hint, cap,
     offset, count) = args
    if n is not None:
        return ensemble_discrete(model, lam, n, count, seed, window_hint=hint,
                                 range_cap=cap, replica_offset=offset)
    return ensemble_continuous(model, lam, horizon, count, seed,
                               window_hint=hint, range_cap=cap,
                               jump_budget=jump_budget,
                               target_level=target_level,
                               replica_offset=offset)


def _rate_scale(model, lam: float) -> float:
    # crude per-unit-time jump-rate bound used only to size windows
    if isinstance(model, IIDConductance):
        hi = model.c.support_bounds()[1]
        return 2.0 * hi * math.cosh(lam)
    if isinstance(model, CoinFlip):
        hi = max(model.a_plus.support_bounds()[1], model.a_minus.support_bounds()[1])
        return 2.0 * hi * math.cosh(lam)
    if isinstance(model, Renewal):
        return (model.a + 2.0) * math.cosh(lam)
    if isinstance(model, PeriodicEnv) and model.rates:
        return 2.0 * max(max(p) for p in model.rates) * math.cosh(lam)
    return 2.0 * math.cosh(lam)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def annealed_velocity(model, lam: float, *, n: int | None = None,
                      horizon: float | None = None, replicas: int, seed: int,
                      workers: int = 1,
                      range_cap: int | None = None) -> Estimate:
    """Mean of X_n/n (or Y_t/t) over fresh environments, with standard error."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    res = _run_ensemble(model, lam, replicas, seed, n=n, horizon=horizon,
                        workers=workers, range_cap=range_cap)
    ok = ~res.aborted
    if ok.sum() < 2:
        raise ValueError(f"{int(res.aborted.sum())} of {replicas} replicas hit "
                         "the range cap; nothing left to estimate")
    scale = float(n if n is not None else horizon)
    return Estimate.from_samples(res.final_positions[ok] / scale,
                                 excluded=int(res.aborted.sum()))


@dataclass(frozen=True)
class DiffusionResult:
    """Sample variance of the recentered rescaled displacement, with a
    Kolmogorov-Smirnov distance to the standard Gaussian."""

    variance: Estimate
    ks_distance: float
    v_used: float
    sigma2_ref: float | None


def annealed_diffusion(model, lam: float, n: int, replicas: int, seed: int, *,
                       v: float | None = None, workers: int = 1) -> DiffusionResult:
    """Variance of Z = (X_n - v n)/sqrt(n) over fresh environments.

    v defaults to the model's closed-form velocity.  The KS diagnostic
    standardizes Z by the closed-form diffusivity when available (otherwise
    by the sample standard deviation).
    """
    if v is None:
        v = velocity_of_model(model, lam).v
    res = _run_ensemble(model, lam, replicas, seed, n=n, workers=workers)
    ok = ~res.aborted
    z = (res.final_positions[ok] - v * n) / math.sqrt(n)
    m = z.size
    s2 = float(z.var(ddof=1))
    m4 = float(np.mean((z - z.mean()) ** 4))
    se = math.sqrt(max(m4 - (m - 3) / (m - 1) * s2 * s2, 0.0) / m)
    var_est = Estimate(s2, se, m, (s2 - 1.96 * se, s2 + 1.96 * se),
                       excluded=int(res.aborted.sum()))
    sigma2_ref = sigma2_of_model(model, lam)
    scale = math.sqrt(sigma2_ref) if sigma2_ref else float(z.std(ddof=1))
    ks = float(kstest(z / scale, "norm").statistic)
    return DiffusionResult(var_est, ks, float(v), sigma2_ref)


@dataclass(frozen=True)
class EinsteinRow:
    """One field strength of the Einstein-relation slope table."""

    h: float
    analytic_slope: float
    bias_term: float
    mc_slope: float | None
    mc_slope_se: float | None
    mc_corrected: float | None
    noise_dominated: bool


@dataclass(frozen=True)
class EinsteinTable:
    limit: float                 # sigma2(0) = dv/dlam at 0
    rows: tuple[EinsteinRow, ...]


def einstein_slope(model: IIDConductance, h_grid, n: int, replicas: int,
                   seed: int, *, mc: bool = True,
                   workers: int = 1) -> EinsteinTable:
    """One-sided difference quotients v(h)/h against their limit sigma2(0).

    Limits: 1/(E[c] E[1/c]) in discrete time, 2/E[1/c] in continuous time.
    bias_term is the exact v(h)/h - limit from the closed-form velocity
    ((ab-1)/(ab)^2 h + O(h^2) in discrete time, O(h^2) in continuous time,
    where the quotient is even in h); mc_corrected subtracts it, so it
    estimates the limit itself.  Rows with replicas too small for the
    signal are flagged noise_dominated.
    """
    if not isinstance(model, IIDConductance):
        raise ValueError("the Einstein check is for conductance models")
    a, b = model.c.moment(1), model.c.moment(-1)
    discrete = model.time_flavor == "discrete"
    limit = 1.0 / (a * b) if discrete else 2.0 / b
    rows = []
    for i, h in enumerate(h_grid):
        vres = velocity_of_model(model, h)
        bias = vres.v / h - limit
        mc_slope = mc_se = corrected = None
        noisy = False
        if mc:
            est = annealed_velocity(
                model, h, replicas=replicas, seed=derive_seed(seed, "einstein", i),
                workers=workers, **({"n": n} if discrete else {"horizon": float(n)}))
            mc_slope = est.mean / h
            mc_se = est.std_error / h
            corrected = mc_slope - bias
            noisy = vres.v < 3.0 * est.std_error
        rows.append(EinsteinRow(float(h), vres.v / h, bias, mc_slope, mc_se,
                                corrected, noisy))
    return EinsteinTable(limit, tuple(rows))


# ---------------------------------------------------------------------------
# renewal environment estimators
# ---------------------------------------------------------------------------

def tau1_tail(gamma: float, n: int) -> float:
    """Exact P(tau_1 > n) = zeta(gamma, n+1)/zeta(gamma)."""
    return float(_hurwitz_zeta(gamma, n + 1) / _hurwitz_zeta(gamma, 1.0))


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


def _moment_tables(gamma: float, n_max: int):
    """Gap pmf p and the tables C, D = p*C and prefix Q of
    renewal_product_moment, indexed by y = 0..n_max.  All vanish at y = 0,
    so clipping a negative argument to 0 reads the right value."""
    y = np.arange(n_max + 1, dtype=float)
    ge = np.zeros(n_max + 1)
    ge[1:] = y[1:] ** (-gamma)                    # P(G >= y)
    p = np.zeros(n_max + 1)
    p[1:] = ge[1:] - (y[1:] + 1.0) ** (-gamma)    # P(G = y)
    w = np.zeros(n_max + 1)
    w[1:] = (ge[1:] - 0.5 * p[1:]) / float(_hurwitz_zeta(gamma, 1.0))
    c = np.convolve(w, (y + 1.0) ** (-gamma))[:n_max + 1]
    return (p, c) + _kernel_tables(p, c)


def _kernel_tables(p, c):
    """D = p*C and the prefix Q[M] = sum_{g<=M} p(g) C(. - g) of a kernel C
    that vanishes at 0, so that sum_{g>M} p(g) C(y-g) = D(y) - Q[M, y]."""
    n_max = c.size - 1
    d = np.convolve(p, c)[:n_max + 1]
    q = np.zeros((_PREFIX_MAX + 1, n_max + 1))
    top = min(_PREFIX_MAX, n_max)     # gaps beyond n_max add nothing
    for g in range(1, top + 1):
        q[g] = q[g - 1]
        q[g, g:] += p[g] * c[:n_max + 1 - g]
    q[top + 1:] = q[top]
    return d, q


def _exact_part(gamma: float, grid: np.ndarray, c) -> np.ndarray:
    """A(n) + C(n)/2 of renewal_product_moment: the terms no sample enters."""
    return (_hurwitz_zeta(gamma, grid + 1.0) - 0.5 * (grid + 1.0) ** (-gamma)) \
        / float(_hurwitz_zeta(gamma, 1.0)) + 0.5 * c[grid]


def _gap_blocks(gamma: float, replicas: int, seed: int):
    """The renewal sampler: blocks of up to _MOMENT_CHUNK replicas, each a
    row of _MOMENT_TERMS - 2 i.i.d. gaps."""
    rng = generator(seed, "renewal-moment")
    for done in range(0, replicas, _MOMENT_CHUNK):
        m = min(_MOMENT_CHUNK, replicas - done)
        yield _gap_from_uniform(rng.random((m, _MOMENT_TERMS - 2)), gamma)


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


def _big_jump_terms(gaps: np.ndarray, grid: np.ndarray, p, c, d, q) -> np.ndarray:
    """Per grid n and replica, sum_{k>=2} 2^-k Z_k with
    Z_k = j [sum_{g>M} p(g) C(y-g) + p(M) C(y-M)/(t+1)], j = k-1,
    y = n - S', where S', M and t come from _running_gaps (one row of gaps
    per replica) and d, q from _kernel_tables(p, c)."""
    n_max = c.size - 1
    out = np.zeros((gaps.shape[0], grid.size))
    for j, s, big, ties in _running_gaps(gaps):
        y = grid[None, :] - s[:, None]
        yc = np.maximum(y, 0)
        above = d[yc] - q[np.minimum(big, _PREFIX_MAX)[:, None], yc]
        for r in np.flatnonzero(big > _PREFIX_MAX):
            for i, yy in enumerate(y[r]):
                span = yy - big[r] - 1
                above[r, i] = np.dot(p[big[r] + 1:yy], c[span:0:-1]) if span > 0 else 0.0
        tie = (p[np.minimum(big, n_max)] / (ties + 1))[:, None] \
            * c[np.maximum(y - big[:, None], 0)]
        out += (j * 0.5 ** (j + 1)) * (above + tie)
    return np.ascontiguousarray(out.T)


def _big_jump_sums(gaps: np.ndarray, p, c) -> np.ndarray:
    """Replica sums of _big_jump_terms at every n = 0..n_max, n_max =
    c.size - 1, from weighted histograms instead of per-replica lookups.

    Summed over replicas, the terms sum_{g>M} p(g) C(n-S'-g) are
    sum_x C(n-x) F(x) with F(x) = sum_g p(g) H(g-1, x-g), H(M, s) the weight
    of the running states with maximum <= M and sum s; a state whose
    maximum passes _PREFIX_MAX adds its part of F directly.  The tie terms
    are a histogram of S'+M.  Sums past n_max reach no n."""
    n_max = c.size - 1
    width = n_max + 2
    f = np.zeros(width)
    h = np.zeros((_PREFIX_MAX + 1) * width)
    for j, s, big, ties in _running_gaps(gaps):
        coef = j * 0.5 ** (j + 1)
        rare = big > _PREFIX_MAX
        h += coef * np.bincount(np.minimum(big, _PREFIX_MAX) * width
                                + np.minimum(s, n_max + 1), ~rare, minlength=h.size)
        f += coef * np.bincount(np.minimum(s + big, n_max + 1),
                                p[np.minimum(big, n_max)] / (ties + 1), minlength=width)
        for r in np.flatnonzero(rare & (s + big < n_max)):
            f[s[r] + big[r] + 1:n_max + 1] += coef * p[big[r] + 1:n_max + 1 - s[r]]
    h = h.reshape(_PREFIX_MAX + 1, width)[:, :n_max + 1].cumsum(axis=0)
    f = f[:n_max + 1]
    top = min(_PREFIX_MAX, n_max)
    for g in range(1, top + 1):
        f[g:] += p[g] * h[g - 1, :n_max + 1 - g]
    f += np.convolve(np.where(np.arange(n_max + 1) > top, p, 0.0), h[-1])[:n_max + 1]
    return np.convolve(f, c)[:n_max + 1]


def renewal_product_moment(gamma: float, n_grid, replicas: int,
                           seed: int) -> RenewalScaling:
    """Estimate E[Z_0...Z_n] = E[2^-N_n], N_n = #(renewal points in [0,n]),
    on a grid of n over fresh stationary renewal environments, fit the
    log-log slope, and attach the exact pointwise lower bound.

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
    are dropped (truncation_bound = 2^-64).  Each std_error adds, in
    quadrature, the worst-case rounding (n+1) eps |mean| of the length-n
    sums behind the exact part: it is the whole error bar at n <= 2, where
    nothing sampled reaches.
    """
    if not gamma > 2:
        raise ValueError("gamma must exceed 2")
    grid = np.asarray(sorted(int(v) for v in n_grid), dtype=np.int64)
    p, c, d, q = _moment_tables(gamma, int(grid.max()))
    exact_part = _exact_part(gamma, grid, c)
    parts = [_big_jump_terms(gaps, grid, p, c, d, q)
             for gaps in _gap_blocks(gamma, replicas, seed)]
    # one contiguous row per n, so the means are pairwise sums
    sampled = np.concatenate(parts, axis=1)
    means = exact_part + sampled.mean(axis=1)
    rounding = (grid + 1.0) * np.finfo(float).eps * means
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
    table lookups per term.  The moment means of the fit are replica sums
    taken from histograms of the same running gap states (_big_jump_sums).
    """
    if not (a > 0 and gamma > 2):
        raise ValueError("need a > 0 and gamma > 2")
    lam_grid = [float(v) for v in lam_grid]
    factors = np.array([a * math.exp(-2.0 * lam) for lam in lam_grid])
    full = np.arange(i_max + 1)
    p, c, _, _ = _moment_tables(gamma, i_max)
    exact = _exact_part(gamma, full, c)
    kernels = []
    for g in factors[factors <= 1.0]:
        weights = g ** (full + 1.0)
        kern = np.convolve(c, weights[::-1])[:i_max + 1]
        kernels.append((float(np.dot(weights, exact)), kern) + _kernel_tables(p, kern))
    sums = np.zeros(i_max + 1)
    sampled = [[] for _ in kernels]
    for gaps in _gap_blocks(gamma, replicas, seed):
        sums += _big_jump_sums(gaps, p, c)
        for (t_exact, kern, d, q), part in zip(kernels, sampled):
            part.append(t_exact + _big_jump_terms(gaps, full[-1:], p, kern, d, q)[0])
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
            t = Estimate.from_samples(np.concatenate(sampled[k]))
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
