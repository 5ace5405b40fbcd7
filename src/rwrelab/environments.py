"""Environment laws and their quenched realizations.

An environment model is a law for per-site jump probabilities (discrete time)
or jump rates (continuous time).  Materializing a model over a site window
yields a DiscreteEnv or RateEnv whose values are pure functions of
(root seed, replica, site), so windows extend consistently and trajectories
replay exactly.

Models
------
IIDOmega        i.i.d. jump-ratio law rho_x; omega+_x = 1/(1+rho_x)
IIDConductance  i.i.d. positive edge weights c_x; omega+_x = c_x/(c_{x-1}+c_x)
                in discrete time, rates (r-_x, r+_x) = (c_{x-1}, c_x) in
                continuous time
Renewal         leftward rate a everywhere, rightward rate 2 on the sites k
                with -k in a stationary heavy-tailed renewal set, 1 elsewhere
CoinFlip        paired rates built from two i.i.d. sequences and one fair
                coin choosing the pairing offset
PeriodicEnv     explicit per-site values repeated with period L

The three i.i.d. models also build the environments of a range of replicas
together (``omega_plus_blocks`` / ``rate_blocks``), for the ensemble
engine: every stream of every replica is seeded at once (``RowStreams``),
and the law's map and the site transform run on blocks of rows with the
code that serves one replica.  A law with one atom draws no uniforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .distributions import ScalarDist
from .rng import CounterStream, RowStreams

__all__ = [
    "IIDOmega", "IIDConductance", "Renewal", "CoinFlip", "PeriodicEnv",
    "DiscreteEnv", "RateEnv", "materialize", "bias", "bias_omega",
    "bias_rates", "omega_from_rates", "RenewalPoints",
    "sample_stationary_renewal", "save_environment", "load_environment",
]


# ---------------------------------------------------------------------------
# bias transforms
# ---------------------------------------------------------------------------

def bias_omega(omega_plus, lam: float):
    """Tilt jump probabilities by the field: returns (omega-, omega+) at lam.

    omega+(lam) = omega+ e^lam / (omega- e^-lam + omega+ e^lam); evaluated as
    omega/(omega + (1-omega) e^-2lam) for stability at large |lam|.
    """
    w = np.asarray(omega_plus, dtype=float)
    if lam >= 0:
        plus = w / (w + (1.0 - w) * math.exp(-2.0 * lam))
    else:
        plus = 1.0 - (1.0 - w) / ((1.0 - w) + w * math.exp(2.0 * lam))
    return 1.0 - plus, plus


def bias_rates(r_minus, r_plus, lam: float):
    """Tilt rates: (r- e^-lam, r+ e^lam)."""
    return (np.asarray(r_minus, dtype=float) * math.exp(-lam),
            np.asarray(r_plus, dtype=float) * math.exp(lam))


def omega_from_rates(r_minus, r_plus):
    """Jump-chain right probability r+/(r- + r+)."""
    rm = np.asarray(r_minus, dtype=float)
    rp = np.asarray(r_plus, dtype=float)
    return rp / (rm + rp)


# ---------------------------------------------------------------------------
# stationary heavy-tailed renewal set
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _tau1_cdf_table(gamma: float, size: int = 1_000_000) -> np.ndarray:
    """CDF of the first point location m >= 1, P(tau1 = m) = m^-gamma / zeta."""
    j = np.arange(1, size + 1, dtype=float)
    return np.cumsum(j ** (-gamma)) / _hurwitz_zeta(gamma, 1.0)


def _gap_from_uniform(u: np.ndarray, gamma: float) -> np.ndarray:
    """Exact inverse CDF of the gap law P(gap >= j) = j^-gamma, j >= 1."""
    v = 1.0 - np.asarray(u)  # in (0,1], avoids u == 0
    return np.floor(v ** (-1.0 / gamma)).astype(np.int64)


def _tau1_from_uniform(u: float, gamma: float) -> int:
    table = _tau1_cdf_table(gamma)
    idx = int(np.searchsorted(table, u, side="right"))
    if idx < len(table):
        return idx + 1
    # astronomically rare tail: binary search on the exact Hurwitz-zeta CDF
    z = _hurwitz_zeta(gamma, 1.0)
    m = len(table)
    while 1.0 - _hurwitz_zeta(gamma, 2 * m + 1) / z < u:
        m *= 2
    lo, hi = m, 2 * m  # CDF(hi) >= u > CDF(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 1.0 - _hurwitz_zeta(gamma, mid + 1) / z < u:
            lo = mid
        else:
            hi = mid
    return hi


class RenewalPoints:
    """Lazy two-sided realization of the stationary renewal point set.

    Points are numbered with tau_0 <= 0 < tau_1.  The straddling gap is drawn
    size-biased and tau_1 placed inside it via its exact marginal
    P(tau_1 = m) = m^-gamma / zeta(gamma); both sides then extend with i.i.d.
    gaps P(gap >= j) = j^-gamma from dedicated counter streams, so any two
    windows of the same (seed, replica) agree on their intersection.
    """

    GAP_BATCH = 1024

    def __init__(self, gamma: float, seed: int, replica: int = 0):
        if not gamma > 2:
            raise ValueError("renewal environment requires gamma > 2")
        self.gamma = float(gamma)
        anchor = CounterStream(seed, "env", "renewal", replica, "anchor")
        u1, u2 = anchor.uniforms(0, 2)
        self.tau1 = _tau1_from_uniform(u1, self.gamma)
        gap0 = int(np.floor(self.tau1 * (1.0 - u2) ** (-1.0 / self.gamma)))
        self.tau0 = self.tau1 - gap0
        self._right = CounterStream(seed, "env", "renewal", replica, "right")
        self._left = CounterStream(seed, "env", "renewal", replica, "left")
        self._right_pts = [self.tau1]
        self._left_pts = [self.tau0]
        self._nright = 0
        self._nleft = 0

    def _extend_right(self, hi: int) -> None:
        while self._right_pts[-1] <= hi:
            u = self._right.uniforms(self._nright, self.GAP_BATCH)
            self._nright += self.GAP_BATCH
            gaps = _gap_from_uniform(u, self.gamma)
            last = self._right_pts[-1]
            self._right_pts.extend((last + np.cumsum(gaps)).tolist())

    def _extend_left(self, lo: int) -> None:
        while self._left_pts[-1] >= lo:
            u = self._left.uniforms(self._nleft, self.GAP_BATCH)
            self._nleft += self.GAP_BATCH
            gaps = _gap_from_uniform(u, self.gamma)
            last = self._left_pts[-1]
            self._left_pts.extend((last - np.cumsum(gaps)).tolist())

    def points_in(self, lo: int, hi: int) -> np.ndarray:
        """Sorted points of the realization inside [lo, hi]."""
        self._extend_right(hi)
        self._extend_left(lo)
        pts = np.concatenate([np.array(self._left_pts[::-1], dtype=np.int64),
                              np.array(self._right_pts, dtype=np.int64)])
        return pts[(pts >= lo) & (pts <= hi)]

    def contains(self, sites: np.ndarray) -> np.ndarray:
        sites = np.asarray(sites, dtype=np.int64)
        if sites.size == 0:
            return np.zeros(0, dtype=bool)
        pts = self.points_in(int(sites.min()), int(sites.max()))
        idx = np.searchsorted(pts, sites)
        idx = np.minimum(idx, max(len(pts) - 1, 0))
        return (len(pts) > 0) & (pts[idx] == sites)


def sample_stationary_renewal(gamma: float, seed: int, window: tuple[int, int],
                              replica: int = 0) -> np.ndarray:
    """Points of the stationary renewal set inside the inclusive window."""
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ValueError("window must be nonempty")
    return RenewalPoints(gamma, seed, replica).points_in(lo, hi)


# ---------------------------------------------------------------------------
# environment models
# ---------------------------------------------------------------------------

class _ReplicaDraws:
    """The environment streams of one replica, each seeded on its own."""

    def __init__(self, seed: int, tag: str, replica: int):
        self.seed, self.tags = seed, ("env", tag, replica)

    def first(self, field: str) -> np.ndarray:
        """The first uniform of the field's stream, shape (1,)."""
        return CounterStream(self.seed, *self.tags, field).uniforms(0, 1)

    def sites(self, dist: ScalarDist, field: str, lo: int, hi: int) -> np.ndarray:
        """dist's samples at sites [lo, hi] from the field's stream; a
        one-atom law ignores its uniforms, so none are drawn."""
        if len(dist.atoms) == 1:
            return np.full(hi - lo + 1, dist.atoms[0])
        u = CounterStream(self.seed, *self.tags, field).site_uniforms(lo, hi)
        return dist.from_uniforms(u)


class _RowDraws:
    """The same streams for a range of replicas, seeded together
    (``RowStreams``) and drawn for one block of rows at a time: the
    ``block`` slice of rows, as rows x sites arrays."""

    def __init__(self, seed: int, tag: str, rows: range):
        self.seed, self.head, self.rows = seed, ("env", tag), rows
        self.block = slice(0, len(rows))
        self._streams: dict[str, RowStreams] = {}

    def _stream(self, field: str) -> RowStreams:
        if field not in self._streams:
            self._streams[field] = RowStreams(self.seed, self.head, self.rows, (field,))
        return self._streams[field]

    def first(self, field: str) -> np.ndarray:
        u = np.empty((self.block.stop - self.block.start, 1))
        self._stream(field).uniforms(0, u, first=self.block.start)
        return u

    def sites(self, dist: ScalarDist, field: str, lo: int, hi: int) -> np.ndarray:
        shape = (self.block.stop - self.block.start, hi - lo + 1)
        if len(dist.atoms) == 1:
            return np.full(shape, dist.atoms[0])
        u = np.empty(shape)
        self._stream(field).site_uniforms(lo, u, first=self.block.start)
        return dist.from_uniforms(u)


# Sites per block of rows in a batched build: enough to amortize NumPy's
# per-call cost, few enough that a block's temporaries stay in cache.
_BLOCK_SITES = 1 << 15


def _site_blocks(sites_of, seed: int, tag: str, rows: range, lo: int, hi: int):
    """(row slice, sites_of(draws, lo, hi)) for consecutive blocks of rows,
    with every stream of every row seeded once for the whole range."""
    draws = _RowDraws(seed, tag, rows)
    step = max(1, _BLOCK_SITES // (hi - lo + 1))
    for k in range(0, len(rows), step):
        draws.block = slice(k, min(k + step, len(rows)))
        yield draws.block, sites_of(draws, lo, hi)


@dataclass(frozen=True)
class IIDOmega:
    """i.i.d. jump-probability environment given through the law of rho_0."""

    rho: ScalarDist
    tag: str = "iid-omega"
    time_flavor: str = "discrete"

    def _omega_plus(self, draws, lo: int, hi: int) -> np.ndarray:
        return 1.0 / (1.0 + draws.sites(self.rho, "rho", lo, hi))

    def omega_plus_sites(self, seed: int, replica: int, lo: int, hi: int) -> np.ndarray:
        return self._omega_plus(_ReplicaDraws(seed, self.tag, replica), lo, hi)

    def omega_plus_blocks(self, seed: int, rows: range, lo: int, hi: int):
        """(row slice, omega+ rows) blocks covering the replicas in rows."""
        return _site_blocks(self._omega_plus, seed, self.tag, rows, lo, hi)

    def params(self) -> dict:
        return {"rho": self.rho.spec_string()}


@dataclass(frozen=True)
class IIDConductance:
    """i.i.d. random conductance model; c_x is the weight of edge {x, x+1}."""

    c: ScalarDist
    time_flavor: str = "discrete"
    tag: str = "iid-conductance"

    def __post_init__(self):
        if self.time_flavor not in ("discrete", "continuous"):
            raise ValueError("time_flavor must be 'discrete' or 'continuous'")

    def _omega_plus(self, draws, lo: int, hi: int) -> np.ndarray:
        c = draws.sites(self.c, "c", lo - 1, hi)
        return c[..., 1:] / (c[..., :-1] + c[..., 1:])

    def _rates(self, draws, lo: int, hi: int):
        c = draws.sites(self.c, "c", lo - 1, hi)
        return c[..., :-1], c[..., 1:]  # r-_x = c_{x-1}, r+_x = c_x

    def omega_plus_sites(self, seed: int, replica: int, lo: int, hi: int) -> np.ndarray:
        return self._omega_plus(_ReplicaDraws(seed, self.tag, replica), lo, hi)

    def rate_sites(self, seed: int, replica: int, lo: int, hi: int):
        rm, rp = self._rates(_ReplicaDraws(seed, self.tag, replica), lo, hi)
        return rm.copy(), rp.copy()

    def omega_plus_blocks(self, seed: int, rows: range, lo: int, hi: int):
        """(row slice, omega+ rows) blocks covering the replicas in rows."""
        return _site_blocks(self._omega_plus, seed, self.tag, rows, lo, hi)

    def rate_blocks(self, seed: int, rows: range, lo: int, hi: int):
        """(row slice, (r- rows, r+ rows)) blocks covering the replicas in rows."""
        return _site_blocks(self._rates, seed, self.tag, rows, lo, hi)

    def params(self) -> dict:
        return {"c": self.c.spec_string(), "time_flavor": self.time_flavor}


@dataclass(frozen=True)
class Renewal:
    """Velocity-discontinuity environment: r(k,k-1) = a for every k and
    r(k,k+1) = 2 exactly when -k belongs to the stationary renewal set."""

    a: float
    gamma: float
    time_flavor: str = "discrete"
    tag: str = "renewal"

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("leftward rate a must be positive")
        if not self.gamma > 2:
            raise ValueError("renewal environment requires gamma > 2")
        if self.time_flavor not in ("discrete", "continuous"):
            raise ValueError("time_flavor must be 'discrete' or 'continuous'")

    def rate_sites(self, seed: int, replica: int, lo: int, hi: int):
        pts = RenewalPoints(self.gamma, seed, replica)
        sites = np.arange(lo, hi + 1, dtype=np.int64)
        marked = pts.contains(-sites)
        r_plus = np.where(marked, 2.0, 1.0)
        r_minus = np.full(sites.shape, float(self.a))
        return r_minus, r_plus

    def omega_plus_sites(self, seed: int, replica: int, lo: int, hi: int) -> np.ndarray:
        rm, rp = self.rate_sites(seed, replica, lo, hi)
        return omega_from_rates(rm, rp)

    def params(self) -> dict:
        return {"a": self.a, "gamma": self.gamma, "time_flavor": self.time_flavor}


@dataclass(frozen=True)
class CoinFlip:
    """Paired-rate environment of two i.i.d. sequences a+ and a- glued on
    alternating edges; a fair coin picks which parity carries the pairs.

    Heads: r+_{2m+1} = a+_m = r-_{2m+2} and r-_{2m+1} = a-_m = r+_{2m+2};
    Tails: the same pattern shifted one site left.
    """

    a_plus: ScalarDist
    a_minus: ScalarDist
    time_flavor: str = "continuous"
    tag: str = "coinflip"

    def _rates(self, draws, lo: int, hi: int):
        heads = draws.first("coin") < 0.5
        # pair m is sites (2m+1, 2m+2) under heads and (2m, 2m+1) under tails;
        # its left member has (r-, r+) = (a-_m, a+_m), its right one the swap.
        # So r+ runs a+_m, a-_m, a+_m+1, ... from site 2 mlo + 1 (heads) or
        # 2 mlo (tails), and r- runs a-_m, a+_m, ... from the same site.
        mlo, mhi = (lo - 1) // 2, hi // 2
        ap = draws.sites(self.a_plus, "a+", mlo, mhi)
        am = draws.sites(self.a_minus, "a-", mlo, mhi)
        width, at = hi - lo + 1, lo - 2 * mlo  # site lo's place in a tails run

        def interleaved(first, second):
            run = np.stack((first, second), axis=-1).reshape(*first.shape[:-1], -1)
            return np.where(heads, run[..., at - 1:at - 1 + width], run[..., at:at + width])

        return interleaved(am, ap), interleaved(ap, am)

    def rate_sites(self, seed: int, replica: int, lo: int, hi: int):
        return self._rates(_ReplicaDraws(seed, self.tag, replica), lo, hi)

    def rate_blocks(self, seed: int, rows: range, lo: int, hi: int):
        """(row slice, (r- rows, r+ rows)) blocks covering the replicas in rows."""
        return _site_blocks(self._rates, seed, self.tag, rows, lo, hi)

    def params(self) -> dict:
        return {"a_plus": self.a_plus.spec_string(),
                "a_minus": self.a_minus.spec_string()}


@dataclass(frozen=True)
class PeriodicEnv:
    """Deterministic environment repeating explicit per-site values.

    Give either omega (discrete jump probabilities) or rates (pairs
    (r-, r+)); the period is the length of the given table.
    """

    omega: tuple[float, ...] = ()
    rates: tuple[tuple[float, float], ...] = ()
    tag: str = "periodic"

    def __post_init__(self):
        if bool(self.omega) == bool(self.rates):
            raise ValueError("give exactly one of omega or rates")
        if self.omega:
            object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
            if any(not 0.0 < w < 1.0 for w in self.omega):
                raise ValueError("jump probabilities must lie in (0,1)")
        else:
            object.__setattr__(
                self, "rates",
                tuple((float(a), float(b)) for a, b in self.rates))
            if any(a <= 0 or b <= 0 for a, b in self.rates):
                raise ValueError("rates must be positive")

    @property
    def period(self) -> int:
        return len(self.omega) if self.omega else len(self.rates)

    @property
    def time_flavor(self) -> str:
        return "discrete" if self.omega else "continuous"

    def omega_plus_at(self, x: int) -> float:
        if self.omega:
            return self.omega[x % self.period]
        rm, rp = self.rates[x % self.period]
        return rp / (rm + rp)

    def rates_at(self, x: int) -> tuple[float, float]:
        if not self.rates:
            raise ValueError("periodic environment has no rates")
        return self.rates[x % self.period]

    def rho_at(self, x: int) -> float:
        w = self.omega_plus_at(x)
        return (1.0 - w) / w

    def omega_plus_sites(self, seed: int, replica: int, lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi + 1) % self.period
        if self.omega:
            return np.asarray(self.omega)[idx]
        r = np.asarray(self.rates)
        return omega_from_rates(r[idx, 0], r[idx, 1])

    def rate_sites(self, seed: int, replica: int, lo: int, hi: int):
        if not self.rates:
            raise ValueError("periodic environment has no rates")
        idx = np.arange(lo, hi + 1) % self.period
        r = np.asarray(self.rates)
        return r[idx, 0].copy(), r[idx, 1].copy()

    def params(self) -> dict:
        if self.omega:
            return {"omega": list(self.omega)}
        return {"rates": [list(p) for p in self.rates]}


@dataclass(frozen=True)
class _Reflected:
    """Site reflection of a base model: omega+_x -> omega-_{-x} and
    (r-_x, r+_x) -> (r+_{-x}, r-_{-x})."""

    base: object
    tag: str = "reflected"

    def omega_plus_sites(self, seed, replica, lo, hi):
        w = self.base.omega_plus_sites(seed, replica, -hi, -lo)
        return 1.0 - w[::-1]

    def rate_sites(self, seed, replica, lo, hi):
        rm, rp = self.base.rate_sites(seed, replica, -hi, -lo)
        return rp[::-1].copy(), rm[::-1].copy()

    def params(self) -> dict:
        return {"base": getattr(self.base, "tag", "?"), **self.base.params()}


@dataclass(frozen=True)
class _JumpChain:
    """Discrete-time jump chain of a rate model (omega from rates)."""

    base: object
    tag: str = "jump-chain"

    def omega_plus_sites(self, seed, replica, lo, hi):
        rm, rp = self.base.rate_sites(seed, replica, lo, hi)
        return omega_from_rates(rm, rp)

    def params(self) -> dict:
        return {"base": getattr(self.base, "tag", "?"), **self.base.params()}


@dataclass(frozen=True)
class _SnapshotDiscrete:
    lo: int
    values: tuple[float, ...]
    source: str = "snapshot"
    tag: str = "snapshot-discrete"

    def omega_plus_sites(self, seed, replica, lo, hi):
        if lo < self.lo or hi >= self.lo + len(self.values):
            raise ValueError("snapshot environments cannot extend their window")
        return np.asarray(self.values)[lo - self.lo: hi - self.lo + 1]

    def params(self) -> dict:
        return {"source": self.source}


@dataclass(frozen=True)
class _SnapshotRate:
    lo: int
    r_minus: tuple[float, ...]
    r_plus: tuple[float, ...]
    source: str = "snapshot"
    tag: str = "snapshot-rate"

    def rate_sites(self, seed, replica, lo, hi):
        if lo < self.lo or hi >= self.lo + len(self.r_minus):
            raise ValueError("snapshot environments cannot extend their window")
        sl = slice(lo - self.lo, hi - self.lo + 1)
        return np.asarray(self.r_minus)[sl].copy(), np.asarray(self.r_plus)[sl].copy()

    def params(self) -> dict:
        return {"source": self.source}


# ---------------------------------------------------------------------------
# quenched realizations
# ---------------------------------------------------------------------------

_GROW = 64  # minimum slack added on window growth


class DiscreteEnv:
    """One realization of discrete-time jump probabilities over a window.

    Safe to share across concurrent readers once materialized; window
    extension mutates the realization object (values never change, only the
    covered range) and needs exclusive access.
    """

    kind = "discrete"

    def __init__(self, model, seed: int, window: tuple[int, int], replica: int = 0):
        self.model = model
        self.seed = int(seed)
        self.replica = int(replica)
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("window must be nonempty")
        self.lo, self.hi = lo, hi
        self._omega = np.asarray(
            model.omega_plus_sites(self.seed, self.replica, lo, hi), dtype=float)
        self._check(self._omega)

    @staticmethod
    def _check(w: np.ndarray) -> None:
        if w.size and not ((w > 0.0) & (w < 1.0)).all():
            raise ValueError("materialized omega+ left (0,1)")

    def ensure(self, lo: int, hi: int) -> None:
        """Extend the window to cover [lo, hi]; existing sites are unchanged
        (values are pure functions of (seed, replica, site))."""
        if lo >= self.lo and hi <= self.hi:
            return
        span = self.hi - self.lo + 1
        new_lo = self.lo if lo >= self.lo else min(lo, self.lo - max(_GROW, span // 2))
        new_hi = self.hi if hi <= self.hi else max(hi, self.hi + max(_GROW, span // 2))
        fresh = np.asarray(self.model.omega_plus_sites(
            self.seed, self.replica, new_lo, new_hi), dtype=float)
        self._check(fresh)
        self.lo, self.hi, self._omega = new_lo, new_hi, fresh

    def omega_plus(self, x: int) -> float:
        self.ensure(x, x)
        return float(self._omega[x - self.lo])

    def omega_plus_window(self, lo: int, hi: int) -> np.ndarray:
        self.ensure(lo, hi)
        return self._omega[lo - self.lo: hi - self.lo + 1]

    def rho(self, x: int) -> float:
        w = self.omega_plus(x)
        return (1.0 - w) / w

    def omega_biased(self, x: int, lam: float) -> tuple[float, float]:
        minus, plus = bias_omega(self.omega_plus(x), lam)
        return float(minus), float(plus)

    def rho_biased(self, x: int, lam: float) -> float:
        return self.rho(x) * math.exp(-2.0 * lam)

    def reflected(self) -> "DiscreteEnv":
        return DiscreteEnv(_Reflected(self.model), self.seed,
                           (-self.hi, -self.lo), self.replica)


class RateEnv:
    """One realization of continuous-time jump rates over a window."""

    kind = "rate"

    def __init__(self, model, seed: int, window: tuple[int, int], replica: int = 0):
        self.model = model
        self.seed = int(seed)
        self.replica = int(replica)
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("window must be nonempty")
        self.lo, self.hi = lo, hi
        rm, rp = model.rate_sites(self.seed, self.replica, lo, hi)
        self._r_minus = np.asarray(rm, dtype=float)
        self._r_plus = np.asarray(rp, dtype=float)
        self._check(self._r_minus, self._r_plus)

    @staticmethod
    def _check(rm: np.ndarray, rp: np.ndarray) -> None:
        if rm.size and not ((rm > 0.0).all() and (rp > 0.0).all()):
            raise ValueError("materialized rates must be positive")

    def ensure(self, lo: int, hi: int) -> None:
        if lo >= self.lo and hi <= self.hi:
            return
        span = self.hi - self.lo + 1
        new_lo = self.lo if lo >= self.lo else min(lo, self.lo - max(_GROW, span // 2))
        new_hi = self.hi if hi <= self.hi else max(hi, self.hi + max(_GROW, span // 2))
        rm, rp = self.model.rate_sites(self.seed, self.replica, new_lo, new_hi)
        rm, rp = np.asarray(rm, dtype=float), np.asarray(rp, dtype=float)
        self._check(rm, rp)
        self.lo, self.hi, self._r_minus, self._r_plus = new_lo, new_hi, rm, rp

    def rates(self, x: int) -> tuple[float, float]:
        self.ensure(x, x)
        i = x - self.lo
        return float(self._r_minus[i]), float(self._r_plus[i])

    def rates_window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        self.ensure(lo, hi)
        sl = slice(lo - self.lo, hi - self.lo + 1)
        return self._r_minus[sl], self._r_plus[sl]

    def rates_biased(self, x: int, lam: float) -> tuple[float, float]:
        rm, rp = self.rates(x)
        return rm * math.exp(-lam), rp * math.exp(lam)

    def rho(self, x: int) -> float:
        rm, rp = self.rates(x)
        return rm / rp

    def rho_biased(self, x: int, lam: float) -> float:
        return self.rho(x) * math.exp(-2.0 * lam)

    def omega_plus(self, x: int) -> float:
        rm, rp = self.rates(x)
        return rp / (rm + rp)

    def jump_chain(self) -> DiscreteEnv:
        """The embedded discrete-time chain (same seed and replica)."""
        return DiscreteEnv(_JumpChain(self.model), self.seed,
                           (self.lo, self.hi), self.replica)

    def reflected(self) -> "RateEnv":
        return RateEnv(_Reflected(self.model), self.seed,
                       (-self.hi, -self.lo), self.replica)


def materialize(model, seed: int, window: tuple[int, int], replica: int = 0):
    """Materialize a quenched realization of the model over the window."""
    flavor = getattr(model, "time_flavor", "discrete")
    if flavor == "discrete":
        return DiscreteEnv(model, seed, window, replica)
    return RateEnv(model, seed, window, replica)


def bias(env, lam: float, x: int):
    """(omega-(lam), omega+(lam)) for a DiscreteEnv, (r-(lam), r+(lam)) for a
    RateEnv, at site x."""
    if isinstance(env, DiscreteEnv):
        return env.omega_biased(x, lam)
    return env.rates_biased(x, lam)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def save_environment(env, path) -> None:
    """Write a self-describing text snapshot, decimally round-trippable."""
    lines = ["# rwrelab environment snapshot v1",
             f"kind: {env.kind}",
             f"model: {getattr(env.model, 'tag', '?')}",
             f"params: {json.dumps(env.model.params(), sort_keys=True)}",
             f"seed: {env.seed}",
             f"replica: {env.replica}",
             f"window: {env.lo} {env.hi}"]
    if env.kind == "discrete":
        lines.append("columns: site omega_plus")
        w = env.omega_plus_window(env.lo, env.hi)
        for x, v in zip(range(env.lo, env.hi + 1), w):
            lines.append(f"{x} {float(v)!r}")
    else:
        lines.append("columns: site r_minus r_plus")
        rm, rp = env.rates_window(env.lo, env.hi)
        for x, a, b in zip(range(env.lo, env.hi + 1), rm, rp):
            lines.append(f"{x} {float(a)!r} {float(b)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_environment(path):
    """Load a snapshot; the returned environment has a fixed window."""
    header: dict[str, str] = {}
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" in line and not rows and not line.split(":")[0].lstrip("-").isdigit():
                key, _, val = line.partition(":")
                header[key.strip()] = val.strip()
            else:
                rows.append(line.split())
    lo, hi = (int(t) for t in header["window"].split())
    if len(rows) != hi - lo + 1:
        raise ValueError("snapshot row count does not match window")
    source = f"{header.get('model', '?')} {header.get('params', '')}".strip()
    seed = int(header.get("seed", 0))
    replica = int(header.get("replica", 0))
    if header["kind"] == "discrete":
        values = tuple(float(r[1]) for r in rows)
        return DiscreteEnv(_SnapshotDiscrete(lo, values, source), seed,
                           (lo, hi), replica)
    r_minus = tuple(float(r[1]) for r in rows)
    r_plus = tuple(float(r[2]) for r in rows)
    return RateEnv(_SnapshotRate(lo, r_minus, r_plus, source), seed,
                   (lo, hi), replica)
