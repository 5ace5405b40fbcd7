"""Deterministic random-number plumbing.

Every random quantity in the package is addressed, not drawn from shared
mutable state: a value is a pure function of (root seed, stream tags, counter).
Streams are PCG64 generators keyed through ``numpy.random.SeedSequence``,
and random access inside a stream uses ``PCG64.advance`` (one advance unit
per 64-bit draw, i.e. per ``float64`` uniform).

This is what makes environment windows extendable and movable without
perturbing already materialized sites, and ensemble results independent of
how the replicas are split across workers.

``RowStreams`` is the one random-access stream type.  It seeds the stream
``(root_seed, *head, r, *tail)`` of every replica r of a range, and a single
stream is a range of one row; batched environment builds, one environment,
a renewal point set and a walk's replica blocks all read their draws
through it.  Costs are kept to what a caller uses: a small range is seeded
row by row with NumPy's own ``SeedSequence`` over the 32-bit words NumPy
would derive from the tuple (the words of string tags cached), a large one
with SeedSequence's pool mixing run as array operations over its rows.
PCG64's seeding and jump-ahead run in 128-bit integer arithmetic (O'Neill
2014, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation"), and one reused PCG64 is set to
each row's state to draw it.

``BlockUniforms`` draws the walk uniforms of a block of steps for every
lane of a replica range, exactly the steps it is asked for, and holds none
of them between calls: the walk engine decides which blocks it asks for.
``BlockExponentials`` turns each block into Exp(1) draws in place.
"""

from __future__ import annotations

import hashlib
import threading
from functools import lru_cache

import numpy as np

# Lowest addressable site index; site x maps to draw counter x - SITE_ORIGIN.
SITE_ORIGIN = -(2**40)

# Replica-block width for per-step walk uniforms.  Part of the seeding
# contract: changing it changes every trajectory, so it is frozen here.
REPLICA_BLOCK = 1024


def tag_int(tag: str | int) -> int:
    """Map a stream tag to a stable 64-bit integer (strings are hashed)."""
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _int_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, split as NumPy's
    ``SeedSequence`` splits each int of a tuple entropy (0 is one word)."""
    if n < 0:
        raise ValueError("stream seeds and tags must be nonnegative")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


@lru_cache(maxsize=256)
def _str_tag_words(tag: str) -> tuple[int, ...]:
    return tuple(_int_words(tag_int(tag)))


def _tag_words(tags) -> list[int]:
    words = []
    for t in tags:
        words.extend(_str_tag_words(t) if isinstance(t, str) else _int_words(int(t)))
    return words


def seed_sequence(root_seed: int, *tags: str | int) -> np.random.SeedSequence:
    entropy = (int(root_seed),) + tuple(tag_int(t) for t in tags)
    return np.random.SeedSequence(entropy)


def generator(root_seed: int, *tags: str | int) -> np.random.Generator:
    """A fresh sequential generator for the given stream."""
    return np.random.Generator(np.random.PCG64(seed_sequence(root_seed, *tags)))


def derive_seed(root_seed: int, *tags: str | int) -> int:
    """A child root seed, itself usable as root of a fresh stream family."""
    return int(seed_sequence(root_seed, *tags).generate_state(1)[0])


# NumPy's SeedSequence (O'Neill's seed_seq) and PCG64 constants, for seeding
# many streams at once exactly as one SeedSequence + PCG64 seeds each.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Rows of one word-count group from which RowStreams seeds them together
# with _seed_words (about 0.3 ms a call plus 0.1 us a row) rather than row by
# row with NumPy's SeedSequence (about 9 us a row); on a 2-vCPU x86 host the
# two cost the same near 30 rows.
_ARRAY_SEEDING = 32


class _HashMix:
    """SeedSequence's hashmix over a column of uint32 words, one per stream;
    its multiplier sequence is the same for every stream, so it is a scalar."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, words: np.ndarray) -> np.ndarray:
        v = words ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        v *= np.uint32(self.const)
        v ^= v >> np.uint32(16)
        return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    r ^= r >> np.uint32(16)
    return r


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of an
    (n, k) uint32 entropy matrix: the pool mixing and the state generation
    as array operations over rows."""
    n, k = entropy.shape
    hashmix = _HashMix(_INIT_A, _MULT_A)
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < k else zeros) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, k):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    return np.stack([words[2 * j] | words[2 * j + 1] << np.uint64(32)
                     for j in range(4)], axis=1)   # little-endian uint32 pairs


@lru_cache(maxsize=64)
def _advance(delta: int) -> tuple[int, int]:
    """(a, b) with the PCG64 state after delta steps = a * state + b * inc
    (mod 2**128): PCG's jump-ahead with the increment factored out."""
    acc_mult, acc_plus, mult, plus = 1, 0, _PCG_MULT, 1
    while delta:
        if delta & 1:
            acc_mult = acc_mult * mult & _M128
            acc_plus = (acc_plus * mult + plus) & _M128
        plus = (mult + 1) * plus & _M128
        mult = mult * mult & _M128
        delta >>= 1
    return acc_mult, acc_plus


_scratch = threading.local()


def _scratch_generator() -> np.random.Generator:
    """This thread's PCG64 generator for RowStreams to draw rows from.  Its
    state is set before every draw, so nothing carries between callers; it is
    shared because building a PCG64 costs more than seeding a row."""
    if not hasattr(_scratch, "gen"):
        _scratch.gen = np.random.Generator(np.random.PCG64(0))
    return _scratch.gen


class RowStreams:
    """Random access to the streams ``(root_seed, *head, r, *tail)`` of a
    range of replicas r; row k is replica ``rows[k]``.

    Each row's stream is the PCG64 that NumPy seeds with
    ``SeedSequence((root_seed, *tag_ints))``, draw for draw, and fills of
    overlapping draws agree exactly whatever was asked for before.  Rows are
    grouped by how many 32-bit words r takes; a group of fewer than
    ``_ARRAY_SEEDING`` rows is seeded row by row with NumPy's SeedSequence,
    a larger one by ``_seed_words``.  A fill sets one reused PCG64 to each
    row's state, seeded and advanced in 128-bit arithmetic, and draws the row
    into the caller's array.
    """

    def __init__(self, root_seed: int, head: tuple, rows: range, tail: tuple):
        prefix = _int_words(int(root_seed)) + _tag_words(head)
        suffix = _tag_words(tail)
        groups = []
        a = rows.start
        while a < rows.stop:
            nwords = len(_int_words(a))
            b = min(rows.stop, 1 << 32 * nwords)
            if b - a < _ARRAY_SEEDING:
                groups.append([np.random.SeedSequence(np.array(
                    prefix + _int_words(r) + suffix, dtype=np.uint32,
                )).generate_state(4, np.uint64) for r in range(a, b)])
            else:
                r = np.arange(b - a, dtype=np.uint64 if b <= 1 << 64 else object) + a
                entropy = np.empty((b - a, len(prefix) + nwords + len(suffix)),
                                   dtype=np.uint32)
                entropy[:, :len(prefix)] = prefix
                for j in range(nwords):
                    entropy[:, len(prefix) + j] = (r >> 32 * j) & _M32
                entropy[:, len(prefix) + nwords:] = suffix
                groups.append(_seed_words(entropy))
            a = b
        # (seed high, seed low, increment high, increment low) per row
        self._words = np.concatenate(groups) if groups else np.empty((0, 4), np.uint64)

    def uniforms(self, start: int, out: np.ndarray, first: int = 0) -> None:
        """Fill row i of out with draws start, start+1, ... of row first+i."""
        if start < 0:
            raise ValueError("stream counter must be nonnegative")
        # PCG64 seeded with (seed, inc) starts at state (i + seed) * MULT + i,
        # i = 2 inc + 1, and is at a * state + b * i after start draws
        a, b = _advance(start)
        a_seed = a * _PCG_MULT & _M128
        a_inc = (a_seed + a + b) & _M128
        key = {"state": 0, "inc": 0}
        value = {"bit_generator": "PCG64", "state": key,
                 "has_uint32": 0, "uinteger": 0}
        gen = _scratch_generator()
        bit_gen = gen.bit_generator
        words = self._words[first:first + len(out)].tolist()
        for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, words):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            key["state"] = (a_seed * (s_hi << 64 | s_lo) + a_inc * inc) & _M128
            key["inc"] = inc
            bit_gen.state = value
            gen.random(out=row)

    def site_uniforms(self, lo: int, out: np.ndarray, first: int = 0) -> None:
        """Fill row i of out with one uniform per site from lo on."""
        if lo < SITE_ORIGIN:
            raise ValueError(f"site index below supported origin {SITE_ORIGIN}")
        self.uniforms(lo - SITE_ORIGIN, out, first)


class BlockUniforms:
    """Per-step uniforms for a contiguous range of replicas.

    Replicas are organized in fixed blocks of ``REPLICA_BLOCK`` lanes; block b
    owns the stream ``(root_seed, *tags, b)``, a row of one ``RowStreams``
    over the range's blocks, and the uniform for (replica r, step t) is draw
    ``t * REPLICA_BLOCK + (r mod REPLICA_BLOCK)`` of that stream.  The layout
    depends only on (root seed, tags), never on ensemble size or how the
    replicas are split, so any slice of replicas can be stepped independently
    yet reproducibly.

    ``rows(t, stop)`` draws steps t..stop - 1 afresh, in any order, and
    nothing is kept between calls: each replica block's steps are one run of
    its stream, drawn into one scratch and copied to the block's lanes.  So a
    call of K steps holds K x (lanes + ``REPLICA_BLOCK``) uniforms.
    """

    def __init__(self, root_seed: int, tags: tuple[str | int, ...],
                 first_replica: int, count: int):
        lo, hi = first_replica, first_replica + count  # [lo, hi)
        blocks = range(lo // REPLICA_BLOCK, (hi - 1) // REPLICA_BLOCK + 1)
        self._streams = RowStreams(root_seed, tuple(tags), blocks, ())
        # the lanes [a, z) of each block that the range holds
        self._spans = [(max(lo - b * REPLICA_BLOCK, 0),
                        min(hi - b * REPLICA_BLOCK, REPLICA_BLOCK)) for b in blocks]
        self._count = count

    def rows(self, t: int, stop: int) -> np.ndarray:
        """Uniforms for all replicas of this range at steps t, t+1, ...,
        stop - 1, one row per step."""
        out = np.empty((stop - t, self._count))
        draws = np.empty((1, (stop - t) * REPLICA_BLOCK))
        col = 0
        for k, (a, z) in enumerate(self._spans):
            self._streams.uniforms(t * REPLICA_BLOCK, draws, first=k)
            out[:, col:col + z - a] = draws.reshape(-1, REPLICA_BLOCK)[:, a:z]
            col += z - a
        return out

    def step(self, t: int) -> np.ndarray:
        """Uniforms for all replicas of this range at step t."""
        return self.rows(t, t + 1)[0]


class BlockExponentials(BlockUniforms):
    """``BlockUniforms`` whose rows hold the Exp(1) draws -log1p(-u) of its
    uniforms u: the transform runs on each fresh block, in place, so a step
    costs no extra array and the values are those of the per-row expression."""

    def rows(self, t: int, stop: int) -> np.ndarray:
        out = super().rows(t, stop)
        np.negative(out, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        return out
