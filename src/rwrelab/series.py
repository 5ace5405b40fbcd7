"""Quenched series with certified truncation error.

All series here have strictly positive terms that are eventually geometric in
the convergent regimes.  Truncation is certified by a trailing-window ratio
test: once every ratio t_{i+1}/t_i over the last `window` terms is <= r < 1
and t_N * r/(1-r) <= tol, the tail is bounded by the geometric majorant.
Divergence is declared only after the windowed geometric-mean ratio stayed
>= 1 for `divergence_run` consecutive terms (which covers terms bounded below
by a positive constant).  Anything else within the term budget is
inconclusive, which callers must distinguish from divergence.

Terms are evaluated and tested in blocks.  The quenched evaluators compute a
block of terms at once from a window of environment sites, and the
certifier applies the test to every term of a block with array operations.
It stops at the same term, with the same partial sum and bound, as a
term-by-term loop: running sums and products accumulate strictly in term
order (`np.add.accumulate`, `np.multiply.accumulate`,
`np.divide.accumulate`), never pairwise, so results do not depend on where
blocks begin and end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .environments import DiscreteEnv, RateEnv, bias_omega

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"

_TERM_OVERFLOW = 1e280
# block sizes of the quenched evaluators: doubling, so a series that stops
# within its first block costs one block
_BLOCK_MIN = 64
_BLOCK_MAX = 1 << 14
# terms pulled at a time from a caller's iterable, whose terms may be costly
_PULL = 1


@dataclass(frozen=True)
class SeriesValue:
    """A numeric series result with a certified truncation-error bound.

    If status == "converged" the true sum lies in
    [value - error_bound, value + error_bound]; otherwise error_bound is inf
    and value holds the partial sum actually accumulated (diagnostic only).
    """

    value: float
    error_bound: float
    status: str
    terms_used: int

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def diverged(self) -> bool:
        return self.status == DIVERGED


def _first(mask: np.ndarray) -> int | None:
    i = int(mask.argmax())
    return i if mask[i] else None


def _window_max(x: np.ndarray, w: int) -> np.ndarray:
    """max(x[i:i + w]) for every i, by doubling spans (exact)."""
    out, span = x, 1
    while 2 * span <= w:
        out = np.maximum(out[:-span], out[span:])
        span *= 2
    return np.maximum(out[:x.size - w + 1], out[w - span:])


class _Certifier:
    """The trailing-window test applied to consecutive blocks of terms.

    Carries the running total, the last `window` terms, the current
    divergence run and the number of terms seen.  feed() returns the result
    at the first term where a term-by-term loop would stop, taking that
    loop's checks in its order (zero term, overflow, ratio bound, divergence
    run), or None when the block holds no stop.
    """

    def __init__(self, tol: float, window: int, divergence_run: int):
        self.tol = tol
        self.window = window
        self.divergence_run = divergence_run
        self.total = 0.0
        self.tail = np.empty(0)
        self.run = 0
        self.n = 0

    def feed(self, block: np.ndarray) -> SeriesValue | None:
        w = self.window
        sums = np.add.accumulate(np.concatenate(([self.total], block)))
        ext = np.concatenate((self.tail, block))
        # terms with `window` ratios behind them: block[lag:], ext[w:]
        lag = max(w - self.tail.size, 0)
        t = block[lag:]
        stops = [(_first(block == 0.0), 0.0, CONVERGED),
                 (_first(block > _TERM_OVERFLOW), math.inf, DIVERGED)]
        if t.size:
            r = _window_max(ext[1:] / ext[:-1], w)
            bound = t * r / (1.0 - r)
            i = _first((r < 1.0) & (bound <= self.tol))
            if i is not None:
                stops.append((lag + i, float(bound[i]), CONVERGED))
            # geometric-mean ratio (t / t_{-window})**(1/window) >= 1 holds
            # for every ratio >= 1.  Below 1 the power can round up to 1.0
            # only for ratios above about 1 - window * 2**-53; in a wide band
            # there it is taken with the scalar power, as term by term
            x = t / ext[:t.size]
            grow = x >= 1.0
            for k in np.flatnonzero((x < 1.0) & (x > 1.0 - 1e-9 * w)):
                grow[k] = float(x[k]) ** (1.0 / w) >= 1.0
            k = np.arange(t.size)
            drop = np.maximum.accumulate(np.where(grow, -1, k))
            run = k - drop + np.where(drop < 0, self.run, 0)
            i = _first(grow & (run >= self.divergence_run))
            if i is not None:
                stops.append((lag + i, math.inf, DIVERGED))
        stops = [s for s in stops if s[0] is not None]
        if stops:
            i, err, status = min(stops, key=lambda s: s[0])
            return SeriesValue(float(sums[i + 1]), err, status, self.n + i + 1)
        self.total = float(sums[-1])
        self.tail = ext[-w:].copy()
        if t.size:
            self.run = int(run[-1])
        self.n += block.size
        return None


def _certify(source: Callable[[Iterator[int]], Iterator[np.ndarray]],
             tol: float, max_terms: int, window: int = 50,
             divergence_run: int = 500, first: int = _BLOCK_MIN,
             most: int = _BLOCK_MAX) -> SeriesValue:
    """Run the certifier over source(sizes), which yields one block of
    terms per requested size (fewer when it runs short, none once it is
    exhausted).  Sizes double from `first` to `most` within max_terms."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    cert = _Certifier(tol, window, divergence_run)

    def sizes() -> Iterator[int]:
        size = first
        while cert.n < max_terms:
            yield min(size, max_terms - cert.n)
            size = min(2 * size, most)

    # a block runs past its stopping term, where terms may overflow and
    # ratios be 0/0 or inf/inf; nothing past the stop is reported
    with np.errstate(all="ignore"):
        for block in source(sizes()):
            if not block.size:
                break
            result = cert.feed(block)
            if result is not None:
                return result
    return SeriesValue(cert.total, math.inf, INCONCLUSIVE, cert.n)


def certified_sum(terms: Iterable[float], tol: float, max_terms: int = 10**6,
                  window: int = 50, divergence_run: int = 500) -> SeriesValue:
    """Sum a positive-term series with a certified tail bound.

    Terms are taken as float64 and pulled lazily, so a costly term source is
    not evaluated past the stopping term."""
    it = iter(terms)
    return _certify(
        lambda sizes: (np.fromiter(itertools.islice(it, m), float) for m in sizes),
        tol, max_terms, window, divergence_run, first=_PULL, most=_PULL)


# ---------------------------------------------------------------------------
# quenched evaluators (blocks of terms from growing environment windows)
# ---------------------------------------------------------------------------

def _site_windows(env, start: int, step: int, sizes: Iterator[int]):
    """(lo, hi) of consecutive blocks of sites from `start` in direction
    `step`, one per requested size.  A block ends at the edge of the
    materialized window when that edge lies ahead, so a fixed window (a
    snapshot) serves every series that stops inside it."""
    x = start
    for m in sizes:
        ahead = env.hi - x + 1 if step > 0 else x - env.lo + 1
        if ahead > 0:
            m = min(m, ahead)
        yield (x, x + m - 1) if step > 0 else (x - m + 1, x)
        x += step * m


def _omega_factors(env: DiscreteEnv, lam: float, start: int, step: int, sizes):
    """Per block, in site order: rho(lam) and (omega-(lam), omega+(lam))."""
    q = math.exp(-2.0 * lam)
    for lo, hi in _site_windows(env, start, step, sizes):
        w = env.omega_plus_window(lo, hi)[::step]
        yield (1.0 - w) / w * q, bias_omega(w, lam)


def _rate_factors(env: RateEnv, lam: float, start: int, step: int, sizes):
    """Per block, in site order: rho(lam) and (r-(lam), r+(lam))."""
    q, down, up = math.exp(-2.0 * lam), math.exp(-lam), math.exp(lam)
    for lo, hi in _site_windows(env, start, step, sizes):
        rm, rp = env.rates_window(lo, hi)
        rm, rp = rm[::step], rp[::step]
        yield rm / rp * q, (rm * down, rp * up)


def _product_terms(factors, accumulate, side: int | None) -> Iterator[np.ndarray]:
    """Blocks of prod_i / biased[side]_i, with prod_0 = 1 and
    prod_{i+1} = accumulate(prod_i, rho_i); side None gives prod_{i+1}."""
    prod = 1.0
    for rho, biased in factors:
        prods = accumulate(np.concatenate(([prod], rho)))
        prod = prods[-1]
        yield prods[1:] if side is None else prods[:-1] / biased[side]


def sbar_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
                  max_terms: int = 10**6) -> SeriesValue:
    """Quenched expected crossing series whose annealed mean is 1/v."""
    # 1/omega+_{-i}(lam) * rho_0(lam) ... rho_{-i+1}(lam)
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 0, -1, sizes), np.multiply.accumulate, 1),
        tol, max_terms)


def fbar_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
                  max_terms: int = 10**6) -> SeriesValue:
    """Leftward counterpart of the crossing series."""
    # 1/omega-_i(lam) / (rho_0(lam) ... rho_{i-1}(lam))
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 0, 1, sizes), np.divide.accumulate, 0),
        tol, max_terms)


def u_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
               max_terms: int = 10**6) -> SeriesValue:
    """Leftward weighted ratio products; satisfies sbar = 1 + 2u."""
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 0, -1, sizes), np.multiply.accumulate, None),
        tol, max_terms)


def v_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
               max_terms: int = 10**6) -> SeriesValue:
    """Rightward weighted ratio products (sites >= 1)."""
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 1, 1, sizes), np.multiply.accumulate, None),
        tol, max_terms)


def lambda_factor(env: DiscreteEnv, lam: float, tol: float = 1e-10,
                  max_terms: int = 10**6) -> SeriesValue:
    """Steady-state density factor (1/omega+_0(lam)) * (1 + sum of rightward
    ratio products); equals (1 + rho_0 e^{-2 lam})(1 + V)."""
    v = v_quenched(env, lam, tol, max_terms)
    _, w_plus = env.omega_biased(0, lam)
    pref = 1.0 / w_plus
    if not v.converged:
        return SeriesValue(math.inf, math.inf, v.status, v.terms_used)
    return SeriesValue(pref * (1.0 + v.value), pref * v.error_bound,
                       v.status, v.terms_used)


def shat_quenched(env: RateEnv, lam: float, tol: float = 1e-10,
                  max_terms: int = 10**6) -> SeriesValue:
    """Continuous-time crossing series; its annealed mean is E[tau_1]."""
    return _certify(lambda sizes: _product_terms(
        _rate_factors(env, lam, 0, -1, sizes), np.multiply.accumulate, 1),
        tol, max_terms)


def fhat_quenched(env: RateEnv, lam: float, tol: float = 1e-10,
                  max_terms: int = 10**6) -> SeriesValue:
    """Leftward continuous-time crossing series."""
    return _certify(lambda sizes: _product_terms(
        _rate_factors(env, lam, 0, 1, sizes), np.divide.accumulate, 0),
        tol, max_terms)
