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

Each model has one entry point, ``site_source(seed, rows)``, for its
native fields only: omega+ (IIDOmega, PeriodicEnv(omega=...), discrete
snapshots) or (r-, r+) (the others).  It returns a source, seeded once, as
a pair (values, blocks): called with a site range [lo, hi], blocks yields
(row slice, per-site arrays) blocks covering the replicas in rows, one
replica being a range of one row.  A law with finite support yields one
uint8 code per site, and values holds its fields per code:
IIDConductance the atoms of (c_{x-1}, c_x), IIDOmega the atom of rho,
CoinFlip the atoms of (r-, r+) among those of a+ and a-, Renewal whether
the site is marked, PeriodicEnv x mod L.  A law that needs more than 256
codes, or has no atoms (``uniform:``), has values None and yields its
fields per site.  ``field_source`` serves either time flavor from it;
discrete time takes a rate model's omega+ = omega_from_rates(r-, r+), its
jump chain, on the per-code values when there are codes.  A realization
holds one source for its lifetime and decodes the codes to float64, so a
growing window draws only its new sites from streams seeded once; the
ensemble engine holds one source per ensemble.

Every draw is read through ``RowStreams``, the stream (seed, "env", tag,
replica, field) of each replica being one row, each field's streams seeded
together for the range.  The renewal point set reads its anchor and gap
streams the same way.  A law with one atom draws no uniforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .distributions import ScalarDist
from .rng import RowStreams

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
    """Exact inverse CDF of the gap law P(gap >= j) = j^-gamma, j >= 1,
    written C-ordered whatever the layout of u; the float steps share one
    array."""
    v = np.subtract(1.0, u, order="C")  # in (0,1], avoids u == 0
    v **= -1.0 / gamma
    return np.floor(v, out=v).astype(np.int64)


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


class _RenewalSide:
    """One side of a renewal point set as chunks of points ordered away from
    the origin: chunk 0 is the anchor point, chunk c >= 1 the points after
    gap batch c - 1 of the side's stream.  It holds a run of chunks, first,
    first + 1, ..., up to the last one drawn, and the point before the run."""

    def __init__(self, draws, gamma: float, name: str, sign: int, anchor: int):
        self.draws, self.gamma, self.name = draws, gamma, name
        self.sign, self.anchor = sign, anchor
        self.chunks, self.first, self.before = [np.array([anchor])], 0, anchor

    def _gaps(self, chunk: int) -> np.ndarray:
        batch = RenewalPoints.GAP_BATCH
        u = self.draws.uniforms(self.name, (chunk - 1) * batch, batch)[0]
        return _gap_from_uniform(u, self.gamma)

    def _drop_inside(self, near: int) -> None:
        """Drop the chunks before the last one that lie nearer the origin
        than near."""
        s = self.sign
        while len(self.chunks) > 1 and s * self.chunks[0][-1] < s * near:
            self.before = self.chunks.pop(0)[-1]
            self.first += 1

    def cover(self, near: int, far: int) -> list:
        """Make the run hold every chunk that meets the points from near out
        to far and no chunk before those, and return it.  Chunks past the
        last one drawn are drawn from it; chunks before the run are drawn
        again backwards from the point before it, which gives the same
        integers, unless the points asked for lie on the other side of the
        origin."""
        s = self.sign
        while s * self.chunks[-1][-1] <= s * far:
            gaps = self._gaps(self.first + len(self.chunks))
            self.chunks.append(self.chunks[-1][-1] + s * np.cumsum(gaps))
            self._drop_inside(near)
        while (self.first > 0 and s * self.before >= s * near
               and s * far >= s * self.anchor):
            self.first -= 1
            if self.first == 0:
                self.chunks.insert(0, np.array([self.anchor]))
                continue
            gaps = self._gaps(self.first)
            start = self.before - s * int(gaps.sum())
            self.chunks.insert(0, start + s * np.cumsum(gaps))
            self.before = start
        self._drop_inside(near)
        return self.chunks


class RenewalPoints:
    """Lazy two-sided realization of the stationary renewal point set.

    Points are numbered with tau_0 <= 0 < tau_1.  The straddling gap is drawn
    size-biased and tau_1 placed inside it via its exact marginal
    P(tau_1 = m) = m^-gamma / zeta(gamma); both sides then extend with i.i.d.
    gaps P(gap >= j) = j^-gamma from dedicated counter streams, so any two
    windows of the same (seed, replica) agree on their intersection.  Each
    side keeps its points as int64 arrays, one per batch of GAP_BATCH gaps,
    and between calls only those from the last window asked for out to the
    last one drawn, so memory follows the windows asked for, not their
    distance from the origin.
    """

    GAP_BATCH = 1024

    def __init__(self, gamma: float, seed: int, replica: int = 0):
        if not gamma > 2:
            raise ValueError("renewal environment requires gamma > 2")
        self.gamma = float(gamma)
        self._draws = _RowDraws(seed, "renewal", range(replica, replica + 1))
        u1, u2 = self._draws.uniforms("anchor", 0, 2)[0]
        self.tau1 = _tau1_from_uniform(u1, self.gamma)
        gap0 = int(np.floor(self.tau1 * (1.0 - u2) ** (-1.0 / self.gamma)))
        self.tau0 = self.tau1 - gap0
        self._right = _RenewalSide(self._draws, self.gamma, "right", 1, self.tau1)
        self._left = _RenewalSide(self._draws, self.gamma, "left", -1, self.tau0)

    def points_in(self, lo: int, hi: int) -> np.ndarray:
        """Sorted points of the realization inside [lo, hi]."""
        right, left = self._right.cover(lo, hi), self._left.cover(hi, lo)
        runs = [c[::-1] for c in reversed(left)] + right
        return np.concatenate(
            [c[np.searchsorted(c, lo):np.searchsorted(c, hi, side="right")]
             for c in runs if c[0] <= hi and c[-1] >= lo] or [np.zeros(0, np.int64)])

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

# Sites per block of rows in a batched build: enough to amortize NumPy's
# per-call cost, few enough that a block's temporaries stay in cache.
_BLOCK_SITES = 1 << 15


def _one_byte(codes: int) -> bool:
    """Whether a law whose sites take this many codes (0 if its support is
    not finite) has one-byte site codes."""
    return 0 < codes <= 256


def _pairs_of(atoms: np.ndarray) -> tuple:
    """(atom i, atom j) for each code k i + j of a pair, k atoms."""
    k = len(atoms)
    return tuple(atoms[a] for a in np.divmod(np.arange(k * k), k))


class _RowDraws:
    """The environment streams (seed, "env", tag, r, field) of a range of
    replicas r, each field's seeded once (``RowStreams``) and held, and
    drawn for the ``block`` slice of rows, as rows x draws arrays.

    Called with a site range, it is an i.i.d. model's blocks: (row slice,
    fields_of(self, lo, hi)) for consecutive blocks of rows."""

    def __init__(self, seed: int, tag: str, rows: range, fields_of=None):
        self.seed, self.head, self.rows = seed, ("env", tag), rows
        self.block = slice(0, len(rows))
        self._fields_of = fields_of
        self._streams: dict[str, RowStreams] = {}

    def __call__(self, lo: int, hi: int):
        step = max(1, _BLOCK_SITES // (hi - lo + 1))
        for k in range(0, len(self.rows), step):
            self.block = slice(k, min(k + step, len(self.rows)))
            yield self.block, self._fields_of(self, lo, hi)

    def _stream(self, field: str) -> RowStreams:
        if field not in self._streams:
            self._streams[field] = RowStreams(self.seed, self.head, self.rows, (field,))
        return self._streams[field]

    def _shape(self, lo: int, hi: int) -> tuple[int, int]:
        return self.block.stop - self.block.start, hi - lo + 1

    def uniforms(self, field: str, start: int, count: int) -> np.ndarray:
        """Draws start..start+count-1 of the field's stream."""
        u = np.empty((self.block.stop - self.block.start, count))
        self._stream(field).uniforms(start, u, first=self.block.start)
        return u

    def _site_uniforms(self, field: str, lo: int, hi: int) -> np.ndarray:
        u = np.empty(self._shape(lo, hi))
        self._stream(field).site_uniforms(lo, u, first=self.block.start)
        return u

    def sites(self, dist: ScalarDist, field: str, lo: int, hi: int) -> np.ndarray:
        """dist's samples at sites [lo, hi] from the field's stream; a
        one-atom law ignores its uniforms, so none are drawn."""
        if len(dist.atoms) == 1:
            return np.full(self._shape(lo, hi), dist.atoms[0])
        return dist.from_uniforms(self._site_uniforms(field, lo, hi))

    def codes(self, dist: ScalarDist, field: str, lo: int, hi: int) -> np.ndarray:
        """The uint8 atom indices of the samples that ``sites`` gives."""
        if len(dist.atoms) == 1:
            return np.zeros(self._shape(lo, hi), dtype=np.uint8)
        index = dist.atom_index(self._site_uniforms(field, lo, hi))
        return index.astype(np.uint8, copy=False)


def _fixed(columns: np.ndarray, index):
    """The source of a model without randomness: for sites [lo, hi], one
    block that every row shares, columns[:, index(lo, hi)].  With at most 256
    columns a site's code is its column and the per-code fields are the rows
    of columns; with more the block holds each field's values."""
    if _one_byte(columns.shape[1]):
        return tuple(columns), lambda lo, hi: [
            (slice(None), (index(lo, hi).astype(np.uint8)[None],))]
    return None, lambda lo, hi: [
        (slice(None), tuple(columns.take(index(lo, hi), axis=1)[:, None]))]


@dataclass(frozen=True)
class IIDOmega:
    """i.i.d. jump-probability environment given through the law of rho_0."""

    rho: ScalarDist
    tag: str = "iid-omega"
    time_flavor: str = "discrete"

    def _codes(self, draws, lo: int, hi: int) -> tuple:
        return (draws.codes(self.rho, "rho", lo, hi),)

    def _omega_plus(self, draws, lo: int, hi: int) -> tuple:
        return (1.0 / (1.0 + draws.sites(self.rho, "rho", lo, hi)),)

    def site_source(self, seed: int, rows: range):
        """(omega+ per code or None, blocks of the replicas in rows); a
        site's code is the atom of its rho."""
        atoms = np.array(self.rho.atoms)
        if _one_byte(len(atoms)):
            return ((1.0 / (1.0 + atoms),),
                    _RowDraws(seed, self.tag, rows, self._codes))
        return None, _RowDraws(seed, self.tag, rows, self._omega_plus)

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

    def _codes(self, draws, lo: int, hi: int) -> tuple:
        i = draws.codes(self.c, "c", lo - 1, hi)
        return (i[..., :-1] * len(self.c.atoms) + i[..., 1:],)

    def _rates(self, draws, lo: int, hi: int) -> tuple:
        c = draws.sites(self.c, "c", lo - 1, hi)
        return c[..., :-1], c[..., 1:]  # r-_x = c_{x-1}, r+_x = c_x

    def site_source(self, seed: int, rows: range):
        """((r-, r+) per code or None, blocks of the replicas in rows); a
        site's code is k i + j for the atoms i of c_{x-1} and j of c_x, k
        atoms."""
        k = len(self.c.atoms)
        if _one_byte(k * k):
            return (_pairs_of(np.array(self.c.atoms)),
                    _RowDraws(seed, self.tag, rows, self._codes))
        return None, _RowDraws(seed, self.tag, rows, self._rates)

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

    def site_source(self, seed: int, rows: range):
        """((r-, r+) per code, blocks of one replica each); a site's code
        is 1 where it is marked.  The source holds each replica's renewal
        points, which keep only the chunks its last site range needs."""
        points = [RenewalPoints(self.gamma, seed, r) for r in rows]

        def blocks(lo: int, hi: int):
            marks = -np.arange(lo, hi + 1, dtype=np.int64)
            for k, pts in enumerate(points):
                yield slice(k, k + 1), (pts.contains(marks).astype(np.uint8)[None],)

        return (np.full(2, float(self.a)), np.array([1.0, 2.0])), blocks

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

    def _sites(self, draws, lo: int, hi: int, sample, members) -> tuple:
        """Per-site arrays at sites [lo, hi] from per-pair ones: with a+ and
        a- = sample(law, field, mlo, mhi) for pairs mlo..mhi, members(a-, a+)
        gives each array's values at the left and the right member of a
        pair."""
        heads = draws.uniforms("coin", 0, 1) < 0.5
        # pair m is sites (2m+1, 2m+2) under heads and (2m, 2m+1) under tails;
        # its left member has (r-, r+) = (a-_m, a+_m), its right one the swap.
        # So r+ runs a+_m, a-_m, a+_m+1, ... from site 2 mlo + 1 (heads) or
        # 2 mlo (tails), and r- runs a-_m, a+_m, ... from the same site.
        mlo, mhi = (lo - 1) // 2, hi // 2
        ap = sample(self.a_plus, "a+", mlo, mhi)
        am = sample(self.a_minus, "a-", mlo, mhi)
        width, at = hi - lo + 1, lo - 2 * mlo  # site lo's place in a tails run

        def interleaved(first, second):
            run = np.stack((first, second), axis=-1).reshape(*first.shape[:-1], -1)
            return np.where(heads, run[..., at - 1:at - 1 + width], run[..., at:at + width])

        return tuple(interleaved(*pair) for pair in members(am, ap))

    def _rates(self, draws, lo: int, hi: int) -> tuple:
        return self._sites(draws, lo, hi, draws.sites,
                           lambda am, ap: ((am, ap), (ap, am)))

    def site_source(self, seed: int, rows: range):
        """((r-, r+) per code or None, blocks of the replicas in rows); a
        site's code is m i + j for the places i of r- and j of r+ among the
        m atoms of a+ and a- together."""
        union = np.unique(self.a_plus.atoms + self.a_minus.atoms)
        m = len(union)
        if not (self.a_plus.atoms and self.a_minus.atoms and _one_byte(m * m)):
            return None, _RowDraws(seed, self.tag, rows, self._rates)
        # each law's atom indices mapped to places among the m atoms; None
        # where that map is the identity, as when both laws share their atoms
        place = {}
        for field, law in (("a+", self.a_plus), ("a-", self.a_minus)):
            where = np.searchsorted(union, law.atoms).astype(np.uint8)
            place[field] = None if np.array_equal(where, np.arange(m)) else where

        def codes(draws, lo: int, hi: int) -> tuple:
            def sample(law, field, a, b):
                index = draws.codes(law, field, a, b)
                return index if place[field] is None else place[field].take(index)

            return self._sites(draws, lo, hi, sample,
                               lambda am, ap: ((am * m + ap, ap * m + am),))

        return _pairs_of(union), _RowDraws(seed, self.tag, rows, codes)

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

    def site_source(self, seed: int, rows: range):
        """One block for every row, of (omega+,) or (r-, r+); a site's code
        is x mod L."""
        columns = np.array([self.omega]) if self.omega else np.array(self.rates).T
        period = self.period
        return _fixed(columns, lambda lo, hi: np.arange(lo, hi + 1) % period)

    def params(self) -> dict:
        if self.omega:
            return {"omega": list(self.omega)}
        return {"rates": [list(p) for p in self.rates]}


@dataclass(frozen=True)
class _Reflected:
    """Site reflection of a base model in one time flavor: omega+_x ->
    1 - omega+_{-x}, or (r-_x, r+_x) -> (r+_{-x}, r-_{-x}) if rates."""

    base: object
    rates: bool
    tag: str = "reflected"

    def _flipped(self, fields: tuple) -> tuple:
        return (fields[1], fields[0]) if self.rates else (1.0 - fields[0],)

    def site_source(self, seed: int, rows: range):
        values, base = field_source(self.base, seed, rows, self.rates)

        def blocks(lo: int, hi: int):
            for blk, f in base(-hi, -lo):
                f = tuple(a[..., ::-1] for a in f)
                yield blk, f if values is not None else self._flipped(f)

        return None if values is None else self._flipped(values), blocks

    def params(self) -> dict:
        return {"base": getattr(self.base, "tag", "?"), **self.base.params()}


@dataclass(frozen=True)
class _Snapshot:
    """The fields of a loaded snapshot, (omega+,) or (r-, r+), at sites
    lo, lo+1, ...; its window cannot grow."""

    lo: int
    columns: tuple[tuple[float, ...], ...]
    source: str
    tag: str

    def site_source(self, seed: int, rows: range):
        end = self.lo + len(self.columns[0])

        def index(lo: int, hi: int) -> np.ndarray:
            if lo < self.lo or hi >= end:
                raise ValueError("snapshot environments cannot extend their window")
            return np.arange(lo - self.lo, hi - self.lo + 1)

        return _fixed(np.array(self.columns), index)

    def params(self) -> dict:
        return {"source": self.source}


def field_source(model, seed: int, rows: range, rates: bool):
    """The source of a model's fields in one time flavor for the replicas in
    rows, fields being (r-, r+) if rates and (omega+,) otherwise: a pair
    (values, blocks).  Called with a site range [lo, hi], blocks yields
    (row slice, per-site arrays) blocks covering every row.  For a
    finite-support law values holds the fields per code and the arrays are
    (uint8 codes,); otherwise values is None and the arrays are the fields.
    A rate model's omega+ is omega_from_rates(r-, r+), its jump chain; a
    model with only omega+ has no rates."""
    values, source = model.site_source(seed, rows)

    def fields_of(native: tuple) -> tuple:
        if len(native) == 2 and not rates:
            return (omega_from_rates(*native),)
        if len(native) == 1 and rates:
            raise ValueError(f"{model.tag} environment has no rates")
        return native

    if values is not None:
        return fields_of(values), source
    return None, lambda lo, hi: ((blk, fields_of(f)) for blk, f in source(lo, hi))


# ---------------------------------------------------------------------------
# quenched realizations
# ---------------------------------------------------------------------------

_GROW = 64  # minimum slack added on window growth


class _Realization:
    """Site fields of one realization over a window [lo, hi] that grows on
    demand, drawn from one source of the model's fields held for the
    realization's lifetime and decoded to float64 if it yields codes;
    subclasses check the fields (_check).

    Safe to share across concurrent readers once materialized; window
    extension mutates the realization object (values never change, only the
    covered range) and needs exclusive access.
    """

    def __init__(self, model, seed: int, window: tuple[int, int], replica: int = 0):
        self.model = model
        self.seed = int(seed)
        self.replica = int(replica)
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("window must be nonempty")
        self._values, self._blocks = field_source(
            model, self.seed, range(self.replica, self.replica + 1),
            self.kind == "rate")
        self.lo, self.hi = lo, hi
        self._fields = self._drawn(lo, hi)

    def _drawn(self, lo: int, hi: int) -> tuple:
        (_, sites), = self._blocks(lo, hi)
        if self._values is None:
            fields = tuple(np.asarray(f[0], dtype=float) for f in sites)
        else:   # decode the codes
            fields = tuple(v.take(sites[0][0]) for v in self._values)
        self._check(*fields)
        return fields

    def __reduce__(self):
        # the source does not pickle; the fields are drawn again, bit for bit
        return type(self), (self.model, self.seed, (self.lo, self.hi), self.replica)

    def ensure(self, lo: int, hi: int) -> None:
        """Extend the window to cover [lo, hi], with slack of half its span
        (at least _GROW) on each side that grows.  Only the new sites are
        drawn and checked; existing sites are unchanged (values are pure
        functions of (seed, replica, site))."""
        if lo >= self.lo and hi <= self.hi:
            return
        grow = max(_GROW, (self.hi - self.lo + 1) // 2)
        new_lo = min(lo, self.lo - grow) if lo < self.lo else self.lo
        new_hi = max(hi, self.hi + grow) if hi > self.hi else self.hi
        parts = [self._fields]
        if new_lo < self.lo:
            parts.insert(0, self._drawn(new_lo, self.lo - 1))
        if new_hi > self.hi:
            parts.append(self._drawn(self.hi + 1, new_hi))
        self._fields = tuple(np.concatenate(f) for f in zip(*parts))
        self.lo, self.hi = new_lo, new_hi


class DiscreteEnv(_Realization):
    """One realization of discrete-time jump probabilities over a window."""

    kind = "discrete"

    @staticmethod
    def _check(w: np.ndarray) -> None:
        if w.size and not ((w > 0.0) & (w < 1.0)).all():
            raise ValueError("materialized omega+ left (0,1)")

    def omega_plus(self, x: int) -> float:
        self.ensure(x, x)
        return float(self._fields[0][x - self.lo])

    def omega_plus_window(self, lo: int, hi: int) -> np.ndarray:
        self.ensure(lo, hi)
        return self._fields[0][lo - self.lo: hi - self.lo + 1]

    def rho(self, x: int) -> float:
        w = self.omega_plus(x)
        return (1.0 - w) / w

    def omega_biased(self, x: int, lam: float) -> tuple[float, float]:
        minus, plus = bias_omega(self.omega_plus(x), lam)
        return float(minus), float(plus)

    def reflected(self) -> "DiscreteEnv":
        return DiscreteEnv(_Reflected(self.model, False), self.seed,
                           (-self.hi, -self.lo), self.replica)


class RateEnv(_Realization):
    """One realization of continuous-time jump rates over a window."""

    kind = "rate"

    @staticmethod
    def _check(rm: np.ndarray, rp: np.ndarray) -> None:
        if rm.size and not ((rm > 0.0).all() and (rp > 0.0).all()):
            raise ValueError("materialized rates must be positive")

    def rates(self, x: int) -> tuple[float, float]:
        self.ensure(x, x)
        i = x - self.lo
        return float(self._fields[0][i]), float(self._fields[1][i])

    def rates_window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        self.ensure(lo, hi)
        sl = slice(lo - self.lo, hi - self.lo + 1)
        return self._fields[0][sl], self._fields[1][sl]

    def rates_biased(self, x: int, lam: float) -> tuple[float, float]:
        rm, rp = self.rates(x)
        return rm * math.exp(-lam), rp * math.exp(lam)

    def rho(self, x: int) -> float:
        rm, rp = self.rates(x)
        return rm / rp

    def omega_plus(self, x: int) -> float:
        rm, rp = self.rates(x)
        return rp / (rm + rp)

    def jump_chain(self) -> DiscreteEnv:
        """The embedded discrete-time chain (same seed and replica)."""
        return DiscreteEnv(self.model, self.seed,
                           (self.lo, self.hi), self.replica)

    def reflected(self) -> "RateEnv":
        return RateEnv(_Reflected(self.model, True), self.seed,
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
    discrete = header["kind"] == "discrete"
    columns = tuple(tuple(float(r[j]) for r in rows) for j in range(1, 2 if discrete else 3))
    model = _Snapshot(lo, columns, source,
                      "snapshot-discrete" if discrete else "snapshot-rate")
    return (DiscreteEnv if discrete else RateEnv)(model, seed, (lo, hi), replica)
