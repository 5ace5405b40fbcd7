"""Exact small-instance computations used as ground truth.

Periodic environments make every series in the package collapse to finite
linear algebra (block-geometric sums, an L-dimensional circulant system for
first-passage means), dynamic programming gives the exact law of the walk
for small step counts, and a renewal recursion gives the renewal
environment's product moments.  These routes are independent of the
quenched series evaluators and of the simulators, which they are used to
validate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .closed_forms import VelocityResult, _regime
from .environments import DiscreteEnv, PeriodicEnv, bias_omega
from .series import CONVERGED, DIVERGED, SeriesValue

_DP_MAX_STEPS = 40


@dataclass(frozen=True)
class WalkDistribution:
    """Exact probability mass function of the walk position after n steps."""

    n: int
    support: np.ndarray          # sites -n..n (parity of n carries the mass)
    pmf: np.ndarray

    def mean(self) -> float:
        return float(np.dot(self.support, self.pmf))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.pmf))

    def total_mass(self) -> float:
        return float(self.pmf.sum())


def exact_walk_distribution(env, lam: float, n: int) -> WalkDistribution:
    """Dynamic programming over site probabilities; n <= 40 keeps the exact
    arithmetic well conditioned in double precision."""
    if not 0 <= n <= _DP_MAX_STEPS:
        raise ValueError(f"exact distribution supports 0 <= n <= {_DP_MAX_STEPS}")
    if isinstance(env, PeriodicEnv):
        w = np.array([env.omega_plus_at(x) for x in range(-n, n + 1)])
    elif isinstance(env, DiscreteEnv):
        w = np.asarray(env.omega_plus_window(-n, n), dtype=float)
    else:
        raise TypeError("env must be a DiscreteEnv or PeriodicEnv")
    _, plus = bias_omega(w, lam)
    minus = 1.0 - plus
    p = np.zeros(2 * n + 1)
    p[n] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(p)
        nxt[1:] += p[:-1] * plus[:-1]
        nxt[:-1] += p[1:] * minus[1:]
        p = nxt
    return WalkDistribution(n, np.arange(-n, n + 1), p)


# ---------------------------------------------------------------------------
# block-geometric series on periodic environments
# ---------------------------------------------------------------------------

def _period_block(env: PeriodicEnv, lam: float, leftward: bool):
    """Head terms over one period and the per-period contraction factor for
    the crossing series (leftward sums rho products, rightward their
    inverses)."""
    ll = env.period
    heads = []
    prod = 1.0
    for i in range(ll):
        if leftward:
            w = env.omega_plus_at(-i)
            heads.append(prod / bias_omega(w, lam)[1])
            prod *= env.rho_at(-i) * math.exp(-2.0 * lam)
        else:
            w = env.omega_plus_at(i)
            heads.append(prod / bias_omega(w, lam)[0])
            prod /= env.rho_at(i) * math.exp(-2.0 * lam)
    return sum(heads), prod


def _critical(block: float, period: int) -> bool:
    # the one-period product carries O(period * eps) rounding; anything this
    # close to 1 is indistinguishable from the exactly-critical case (where
    # the sum would exceed ~1e12 anyway) and is classified divergent
    return block >= 1.0 - 1e-12 * max(period, 1)


def exact_sbar_periodic(env: PeriodicEnv, lam: float) -> SeriesValue:
    """Exact crossing series on a periodic environment: converges iff the
    one-period ratio product (prod rho) e^{-2 lam L} < 1, with block sum
    head/(1 - P)."""
    head, block = _period_block(env, lam, leftward=True)
    if _critical(block, env.period):
        return SeriesValue(math.inf, math.inf, DIVERGED, env.period)
    return SeriesValue(head / (1.0 - block), 0.0, CONVERGED, env.period)


def exact_fbar_periodic(env: PeriodicEnv, lam: float) -> SeriesValue:
    """Leftward counterpart of exact_sbar_periodic."""
    head, block = _period_block(env, lam, leftward=False)
    if _critical(block, env.period):
        return SeriesValue(math.inf, math.inf, DIVERGED, env.period)
    return SeriesValue(head / (1.0 - block), 0.0, CONVERGED, env.period)


def velocity_periodic(env: PeriodicEnv, lam: float) -> VelocityResult:
    """Velocity on a periodic environment from the invariant law pi of the
    position mod L (an L x L solve): v = pi . (omega+(lam) - omega-(lam)) in
    discrete time, v = pi . (r+(lam) - r-(lam)) in continuous time (rate
    environments).  The zero-speed window degenerates to the single point
    thr = mean(log rho)/2, where v is 0."""
    ll = env.period
    thr = 0.5 * sum(math.log(env.rho_at(x)) for x in range(ll)) / ll
    # the one-period ratio product is exp(2 L (thr - lam)): this is the
    # 1e-12 * L band around 1 that _critical treats as critical
    if abs(lam - thr) <= 5e-13:
        return VelocityResult(0.0, _regime(0.0), thr, thr)
    if env.time_flavor == "continuous":
        rates = np.array([env.rates_at(x) for x in range(ll)])
        left, right = rates[:, 0] * math.exp(-lam), rates[:, 1] * math.exp(lam)
    else:
        left, right = bias_omega(np.array(env.omega), lam)
    # generator of the position mod L (a transition matrix minus I in
    # discrete time); pi solves pi Q = 0 with its last equation replaced
    # by sum(pi) = 1
    q = np.zeros((ll, ll))
    for k in range(ll):
        q[k, (k + 1) % ll] += right[k]
        q[k, (k - 1) % ll] += left[k]
        q[k, k] -= right[k] + left[k]
    a = q.T.copy()
    a[-1] = 1.0
    b = np.zeros(ll)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    v = float(np.dot(pi, right - left))
    return VelocityResult(v, _regime(v), thr, thr)


# ---------------------------------------------------------------------------
# first-passage mean on periodic rate environments
# ---------------------------------------------------------------------------

def exact_tau1_periodic_continuous(env: PeriodicEnv, lam: float,
                                   method: str = "solve") -> float:
    """Expected first-passage time to site 1 on a periodic rate environment.

    method="solve" resolves the L coupled recursions
    u_k = 1/r+_{-k}(lam) + rho_{-k}(lam) u_{k+1 mod L} exactly;
    method="geometric" sums the crossing series in one-period blocks.  The
    two routes agree to machine precision in the convergent regime.
    """
    if env.time_flavor != "continuous":
        raise ValueError("needs a periodic rate environment")
    ll = env.period
    r_plus_b = np.empty(ll)
    rho_b = np.empty(ll)
    for k in range(ll):
        rm, rp = env.rates_at(-k)
        r_plus_b[k] = rp * math.exp(lam)
        rho_b[k] = (rm / rp) * math.exp(-2.0 * lam)
    block = float(np.prod(rho_b))
    if _critical(block, ll):
        raise ValueError("non-convergent regime: one-period ratio product "
                         f"{block:.6g} is >= 1 within numerical resolution")
    if method == "solve":
        mat = np.eye(ll)
        for k in range(ll):
            mat[k, (k + 1) % ll] -= rho_b[k]
        u = np.linalg.solve(mat, 1.0 / r_plus_b)
        return float(u[0])
    if method == "geometric":
        heads = 0.0
        prod = 1.0
        for k in range(ll):
            heads += prod / r_plus_b[k]
            prod *= rho_b[k]
        return heads / (1.0 - block)
    raise ValueError("method must be 'solve' or 'geometric'")


# ---------------------------------------------------------------------------
# product moments of the renewal environment
# ---------------------------------------------------------------------------

def exact_product_moment(gamma: float, n_max: int) -> np.ndarray:
    """Exact E[Z_0...Z_n] for n = 0..n_max by renewal decomposition.

    F(j) solves the defective renewal recursion of the ordinary process; the
    stationary moment splits over the first renewal point at/after 0.  This
    route is independent of the sampler (it never draws anything).
    """
    zg = float(_hurwitz_zeta(gamma, 1.0))
    d = 1.0 / zg
    j = np.arange(1, n_max + 1, dtype=float)
    p = j ** (-gamma) - (j + 1.0) ** (-gamma)     # ordinary gap pmf
    gap_tail = (j + 1.0) ** (-gamma)              # P(gap > j)
    f = np.zeros(n_max + 1)
    f[0] = 1.0
    for n in range(1, n_max + 1):
        f[n] = 0.5 * np.dot(p[:n], f[n - 1::-1]) + gap_tail[n - 1]
    ptau1 = j ** (-gamma) / zg
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        val = 0.5 * d * f[n]
        if n >= 1:
            w = ptau1[:n] - d * p[:n]             # first point at m, 0 not in tau
            val += 0.5 * np.dot(w, f[n - 1::-1])
        stat_tail = float(_hurwitz_zeta(gamma, n + 1)) / zg
        gap_beyond = 1.0 if n == 0 else gap_tail[n - 1]
        val += stat_tail - d * gap_beyond         # no point in [0, n]
        out[n] = val
    return out
