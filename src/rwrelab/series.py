"""Quenched series with certified truncation error.

All series here have strictly positive terms that are eventually geometric in
the convergent regimes.  Where the environment's model bounds its ratio
products (``ratio_majorant``: rho_a(lam) ... rho_{a+i-1}(lam) <= K q^i, with
q < 1), each evaluator turns the bound into one on its terms, t_i <= A q^i,
and the series stops at the first N with A q^N/(1-q) <= tol, which bounds
the tail.  That N is found once, before any term is read.  Every series
also runs a trailing-window ratio test: once every ratio t_{i+1}/t_i over
the last `window` terms is <= r < 1 and t_N * r/(1-r) <= tol, the tail is
bounded by the geometric majorant.  Divergence is declared only after the
windowed geometric-mean ratio stayed >= 1 for `divergence_run` consecutive
terms (which covers terms bounded below by a positive constant).  Anything
else within the term budget is inconclusive, which callers must distinguish
from divergence.

Terms are evaluated and tested in blocks.  The quenched evaluators compute a
block of terms at once from a window of environment sites, and the
certifier applies the tests to every term of a block with array operations.
It stops at the same term, with the same partial sum and bound, as a
term-by-term loop: running sums and products accumulate strictly in term
order (`np.add.accumulate`, `np.multiply.accumulate`), never pairwise, so
results do not depend on where blocks begin and end.  No block reaches past
the model's stop, and the window and divergence tests are skipped over
terms where they cannot stop the series before it.

The crossing series serve a walk drifting right (lam > 0); for one drifting
left, evaluate them on env.reflected() at -lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

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


def _tail_bound(a: float, q: float, n: int) -> float:
    """The bound a q^n/(1 - q) on the terms after the first n, when term i
    is at most a q^i.  A model's K and q come from a few rounded operations
    on its values, so each may be off by a relative 2^-40: q^n multiplies
    that by n and 1/(1 - q) by q/(1 - q).  The bound allows twice that,
    which also covers its own rounding, for any n below 2^39."""
    return a * q**n / (1.0 - q) * (1.0 + (n + 2.0 / (1.0 - q)) * 2.0**-39)


def _majorant_stop(a: float, q: float, tol: float,
                   max_terms: int) -> tuple[int, float] | None:
    """(N, _tail_bound(a, q, N)) for the least N >= 1 whose bound is <= tol,
    or None if that N exceeds max_terms."""
    n = 1
    if q > 0.0 and a / (1.0 - q) > tol:
        n = max(1, math.ceil((math.log(tol) + math.log1p(-q) - math.log(a))
                             / math.log(q)))
    if n > max_terms + 1:
        return None
    while n > 1 and _tail_bound(a, q, n - 1) <= tol:
        n -= 1
    while _tail_bound(a, q, n) > tol:
        n += 1
    return (n, _tail_bound(a, q, n)) if n <= max_terms else None


class _Certifier:
    """The stopping tests applied to consecutive blocks of terms.

    Carries the running total, the last `window` terms, the current
    divergence run and the number of terms seen.  feed() returns the result
    at the first term where a term-by-term loop would stop, taking that
    loop's checks in its order (zero term, overflow, the majorant's stop
    term, ratio bound, divergence run), or None when the block holds no
    stop.  `stop` is the majorant's (N, bound), or None.
    """

    def __init__(self, tol: float, window: int, divergence_run: int,
                 stop: tuple[int, float] | None = None):
        self.tol = tol
        self.window = window
        self.divergence_run = divergence_run
        self.stop = stop
        self.total = 0.0
        self.tail = np.empty(0)
        self.run = 0
        self.n = 0

    def feed(self, block: np.ndarray) -> SeriesValue | None:
        w = self.window
        sums = np.add.accumulate(np.concatenate(([self.total], block)))
        i = _first((block == 0.0) | (block > _TERM_OVERFLOW))
        stops = [] if i is None else [
            (i, 0.0, CONVERGED) if block[i] == 0.0 else (i, math.inf, DIVERGED)]
        # the window and divergence tests only over terms before the stop
        m, left = block.size, math.inf   # left: terms before the stop
        if self.stop is not None:
            left = self.stop[0] - 1 - self.n
            if left < m:
                m = left
                stops.append((m, self.stop[1], CONVERGED))
        # terms with `window` ratios behind them: block[lag:], ext[w:]
        lag = max(w - self.tail.size, 0)
        t = block[lag:m]
        # a run can reach divergence_run before the stop
        tracked = self.run + left - lag >= self.divergence_run
        if t.size:
            ext = np.concatenate((self.tail, block[:m]))
            r = _window_max(ext[1:] / ext[:-1], w)
            bound = t * r / (1.0 - r)
            i = _first((r < 1.0) & (bound <= self.tol))
            if i is not None:
                stops.append((lag + i, float(bound[i]), CONVERGED))
        if t.size and tracked:
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
            self.run = int(run[-1])
        # once untracked, the run cannot reach divergence_run before the
        # stop in any later block either, so it is not kept
        stops = [s for s in stops if s[0] is not None]
        if stops:
            i, err, status = min(stops, key=lambda s: s[0])
            return SeriesValue(float(sums[i + 1]), err, status, self.n + i + 1)
        self.total = float(sums[-1])
        self.tail = np.concatenate((self.tail, block))[-w:].copy()
        self.n += block.size
        return None


def _certify(source: Callable[[Iterator[int]], Iterator[np.ndarray]],
             tol: float, max_terms: int, window: int = 50,
             divergence_run: int = 500,
             majorant: tuple[float, float] | None = None) -> SeriesValue:
    """Run the certifier over source(sizes), which yields one block of at
    most each requested size; an empty block or the end of the source ends
    the series.  majorant is (A, q), term i being at most A q^i with
    0 <= q < 1, or None.  Sizes double from _BLOCK_MIN to _BLOCK_MAX within
    max_terms and the majorant's stop term."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    stop = None if majorant is None else _majorant_stop(*majorant, tol, max_terms)
    cert = _Certifier(tol, window, divergence_run, stop)
    limit = max_terms if stop is None else stop[0]

    def sizes() -> Iterator[int]:
        size = _BLOCK_MIN
        while cert.n < limit:
            yield min(size, limit - cert.n)
            size = min(2 * size, _BLOCK_MAX)

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


# ---------------------------------------------------------------------------
# quenched evaluators (blocks of terms from consecutive environment reads)
# ---------------------------------------------------------------------------

def _site_windows(start: int, step: int, sizes: Iterator[int]):
    """(lo, hi) of consecutive blocks of sites from `start` in direction
    `step`, one per requested size."""
    x = start
    for m in sizes:
        yield (x, x + m - 1) if step > 0 else (x - m + 1, x)
        x += step * m


def _omega_factors(env: DiscreteEnv, lam: float, start: int, step: int, sizes,
                   plus: bool = False):
    """Per block, in site order: rho(lam) and, if plus, omega+(lam)."""
    q = math.exp(-2.0 * lam)
    for lo, hi in _site_windows(start, step, sizes):
        w = env.omega_plus_window(lo, hi)[::step]
        yield (1.0 - w) / w * q, bias_omega(w, lam)[1] if plus else None


def _rate_factors(env: RateEnv, lam: float, start: int, step: int, sizes):
    """Per block, in site order: rho(lam) and r+(lam)."""
    q, up = math.exp(-2.0 * lam), math.exp(lam)
    for lo, hi in _site_windows(start, step, sizes):
        rm, rp = env.rates_window(lo, hi)
        rm, rp = rm[::step], rp[::step]
        yield rm / rp * q, rp * up


def _product_terms(factors, crossing: bool) -> Iterator[np.ndarray]:
    """Blocks of prod_i / plus_i (crossing) or of prod_{i+1}, with
    prod_0 = 1 and prod_{i+1} = prod_i * rho_i."""
    prod = 1.0
    for rho, plus in factors:
        prods = np.multiply.accumulate(np.concatenate(([prod], rho)))
        prod = prods[-1]
        yield prods[:-1] / plus if crossing else prods[1:]


def _majorant(env, lam: float, term) -> tuple[float, float] | None:
    """(A, q) = term(K, q, r) from the model's ratio majorant (K, q, r), or
    None if it has none."""
    bound = getattr(env.model, "ratio_majorant", None)
    found = None if bound is None else bound(lam)
    return None if found is None else term(*found)


def sbar_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
                  max_terms: int = 10**6) -> SeriesValue:
    """Quenched expected crossing series whose annealed mean is 1/v."""
    # 1/omega+_{-i}(lam) * rho_0(lam) ... rho_{-i+1}(lam), where
    # 1/omega+ = 1 + rho: at most K q^i (1 + q)
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 0, -1, sizes, plus=True), crossing=True),
        tol, max_terms,
        majorant=_majorant(env, lam, lambda k, q, r: (k * (1.0 + q), q)))


def u_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
               max_terms: int = 10**6) -> SeriesValue:
    """Leftward weighted ratio products; satisfies sbar = 1 + 2u."""
    # rho_0(lam) ... rho_{-i}(lam): at most K q^(i+1) <= K q^i
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 0, -1, sizes), crossing=False), tol, max_terms,
        majorant=_majorant(env, lam, lambda k, q, r: (k, q)))


def v_quenched(env: DiscreteEnv, lam: float, tol: float = 1e-10,
               max_terms: int = 10**6) -> SeriesValue:
    """Rightward weighted ratio products (sites >= 1)."""
    # rho_1(lam) ... rho_{i+1}(lam): at most K q^(i+1) <= K q^i
    return _certify(lambda sizes: _product_terms(
        _omega_factors(env, lam, 1, 1, sizes), crossing=False), tol, max_terms,
        majorant=_majorant(env, lam, lambda k, q, r: (k, q)))


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
    # rho_0(lam) ... rho_{-i+1}(lam) / r+_{-i}(lam): at most K q^i e^-lam / r
    return _certify(lambda sizes: _product_terms(
        _rate_factors(env, lam, 0, -1, sizes), crossing=True), tol, max_terms,
        majorant=_majorant(env, lam, lambda k, q, r: (k * math.exp(-lam) / r, q)))
