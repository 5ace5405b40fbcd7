"""Deterministic random-number plumbing.

Every random quantity in the package is addressed, not drawn from shared
mutable state: a value is a pure function of (root seed, stream tags, counter).
Streams are PCG64 generators keyed through ``numpy.random.SeedSequence``,
and random access inside a stream uses ``PCG64.advance`` (one advance unit
per 64-bit draw, i.e. per ``float64`` uniform).

This is what makes environment windows extendable without perturbing already
materialized sites, replicas independent of chunking, and ensemble results
independent of worker count.

Costs are kept to what a caller uses.  A stream is seeded by one of two
routes, and both give the same draws:

* ``CounterStream`` seeds one stream: a ``SeedSequence`` over the 32-bit
  words NumPy would derive from the ``(root_seed, *tags)`` tuple, with the
  words of string tags cached, so a fresh environment build skips the tuple
  coercion and tag hashing.  It costs about 20 us per stream.
* ``RowStreams`` seeds the stream ``(root_seed, *head, r, *tail)`` of every
  replica r of a range at once: SeedSequence's pool mixing runs as array
  operations over the replicas, PCG64's seeding and jump-ahead run in
  128-bit integer arithmetic (O'Neill 2014, "PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation"), and one reused PCG64 is set to each replica's state to draw
  its row.  That is a few us per replica but a fixed 0.35-0.6 ms per call,
  so batched environment builds use it and single streams (one
  environment, a walk's replica block) keep ``CounterStream``.

``BlockUniforms`` draws walk uniforms ahead in fills that start at 16 steps
and double up to ``steps_per_refill``, into one (steps x lanes) buffer: a
walk that stops early draws little, and the buffer never holds more than
``steps_per_refill`` steps of its lanes.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

# Lowest addressable site index; site x maps to draw counter x - SITE_ORIGIN.
SITE_ORIGIN = -(2**40)

# Replica-block width for per-step walk uniforms.  Part of the seeding
# contract: changing it changes every trajectory, so it is frozen here.
REPLICA_BLOCK = 1024

# Steps drawn by the first fill of a BlockUniforms; later fills double.
FIRST_FILL = 16


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


def _entropy_words(root_seed: int, tags) -> np.ndarray:
    """The uint32 entropy NumPy derives from ``(root_seed, *tag_ints)``."""
    return np.array(_int_words(int(root_seed)) + _tag_words(tags), dtype=np.uint32)


def seed_sequence(root_seed: int, *tags: str | int) -> np.random.SeedSequence:
    entropy = (int(root_seed),) + tuple(tag_int(t) for t in tags)
    return np.random.SeedSequence(entropy)


def generator(root_seed: int, *tags: str | int) -> np.random.Generator:
    """A fresh sequential generator for the given stream."""
    return np.random.Generator(np.random.PCG64(seed_sequence(root_seed, *tags)))


def derive_seed(root_seed: int, *tags: str | int) -> int:
    """A child root seed, itself usable as root of a fresh stream family."""
    return int(seed_sequence(root_seed, *tags).generate_state(1)[0])


class CounterStream:
    """Random-access view of one PCG64 stream.

    ``uniforms(start, count)`` returns draws number start..start+count-1 of
    the stream, regardless of what was asked for before; overlapping requests
    agree exactly.  The stream is the one ``seed_sequence(root_seed, *tags)``
    keys; it is seeded from the equivalent word array.
    """

    __slots__ = ("_ss",)

    def __init__(self, root_seed: int, *tags: str | int):
        self._ss = np.random.SeedSequence(_entropy_words(root_seed, tags))

    def uniforms(self, start: int, count: int) -> np.ndarray:
        if start < 0:
            raise ValueError("stream counter must be nonnegative")
        bit_gen = np.random.PCG64(self._ss)
        if start:
            bit_gen.advance(start)
        return np.random.Generator(bit_gen).random(count)

    def site_uniforms(self, lo: int, hi: int) -> np.ndarray:
        """One uniform per site for the inclusive window [lo, hi]."""
        if lo < SITE_ORIGIN:
            raise ValueError(f"site index below supported origin {SITE_ORIGIN}")
        return self.uniforms(lo - SITE_ORIGIN, hi - lo + 1)


# NumPy's SeedSequence (O'Neill's seed_seq) and PCG64 constants, for seeding
# many streams at once exactly as one SeedSequence + PCG64 seeds each.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


class RowStreams:
    """The streams ``(root_seed, *head, r, *tail)`` of a range of replicas r,
    seeded together; row k is replica ``rows[k]``.

    Each row's stream is the one ``CounterStream(root_seed, *head, r, *tail)``
    reads, draw for draw.  Rows are grouped by how many 32-bit words r takes,
    and each group's SeedSequence runs as array operations over its rows; a
    fill then sets one reused PCG64 to each row's state, seeded and advanced
    in 128-bit arithmetic, and draws the row into the caller's array.
    """

    def __init__(self, root_seed: int, head: tuple, rows: range, tail: tuple):
        prefix = _entropy_words(root_seed, head)
        suffix = _tag_words(tail)
        groups = []
        a = rows.start
        while a < rows.stop:
            nwords = len(_int_words(a))
            b = min(rows.stop, 1 << 32 * nwords)
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
        self._bit_gen = np.random.PCG64()
        self._gen = np.random.Generator(self._bit_gen)

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
        bit_gen, gen = self._bit_gen, self._gen
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
    owns one stream, and the uniform for (replica r, step t) is draw
    ``t * REPLICA_BLOCK + (r mod REPLICA_BLOCK)`` of that stream.  The layout
    depends only on (root seed, tags), never on ensemble size or memory
    chunking, so any slice of replicas can be stepped independently yet
    reproducibly.

    Steps are drawn ahead into one (steps x lanes) buffer, all blocks side by
    side, and ``step`` returns a row of it.  A step outside the buffer starts a
    fill there: the first covers ``FIRST_FILL`` steps, each later one twice the
    last, up to ``steps_per_refill``, and no fill crosses a multiple of
    ``steps_per_refill``.  So the buffer holds at most ``steps_per_refill``
    steps of the range's lanes, and a walk of s steps draws fewer than
    ``2 s + FIRST_FILL`` steps.  Any step may be asked for in any order;
    the returned row is overwritten by later fills.
    """

    def __init__(self, root_seed: int, tags: tuple[str | int, ...],
                 first_replica: int, count: int, steps_per_refill: int = 1024):
        self._blocks: list[tuple[int, int, CounterStream]] = []
        lo, hi = first_replica, first_replica + count  # [lo, hi)
        b0, b1 = lo // REPLICA_BLOCK, (hi - 1) // REPLICA_BLOCK
        for b in range(b0, b1 + 1):
            bs = b * REPLICA_BLOCK
            a, z = max(lo - bs, 0), min(hi - bs, REPLICA_BLOCK)
            self._blocks.append((a, z, CounterStream(root_seed, *tags, b)))
        self._count = count
        self._cap = steps_per_refill
        self._next = min(FIRST_FILL, steps_per_refill)
        self._buf: np.ndarray | None = None
        self._buf_step0 = 0

    def _fill(self, step0: int) -> None:
        steps = min(self._next, self._cap - step0 % self._cap)
        self._next = min(2 * self._next, self._cap)
        self._buf = None  # release the old rows before drawing new ones
        buf = np.empty((steps, self._count))
        col = 0
        for a, z, stream in self._blocks:
            buf[:, col:col + z - a] = stream.uniforms(
                step0 * REPLICA_BLOCK, steps * REPLICA_BLOCK,
            ).reshape(steps, REPLICA_BLOCK)[:, a:z]
            col += z - a
        self._buf, self._buf_step0 = buf, step0

    def step(self, t: int) -> np.ndarray:
        """Uniforms for all replicas of this range at step t."""
        j = t - self._buf_step0
        if self._buf is None or not 0 <= j < self._buf.shape[0]:
            self._fill(t)
            j = 0
        return self._buf[j]
