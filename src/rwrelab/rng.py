"""Deterministic random-number plumbing.

Every random quantity in the package is addressed, not drawn from shared
mutable state: a value is a pure function of (root seed, stream tags, counter).
Streams are PCG64 generators keyed through ``numpy.random.SeedSequence``,
and random access inside a stream uses ``PCG64.advance`` (one advance unit
per 64-bit draw, i.e. per ``float64`` uniform).

This is what makes environment windows extendable without perturbing already
materialized sites, replicas independent of chunking, and ensemble results
independent of worker count.

Costs are kept to what a caller uses.  A ``CounterStream`` seeds its
``SeedSequence`` from the 32-bit words NumPy would derive from the
``(root_seed, *tags)`` tuple, with the words of string tags cached, so the
stream is the same and a fresh environment build skips the tuple coercion
and tag hashing.  ``BlockUniforms`` draws walk uniforms ahead in fills that
start at 16 steps and double up to ``steps_per_refill``, into one
(steps x lanes) buffer: a walk that stops early draws little, and the buffer
never holds more than ``steps_per_refill`` steps of its lanes.
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


def _entropy_words(root_seed: int, tags) -> np.ndarray:
    """The uint32 entropy NumPy derives from ``(root_seed, *tag_ints)``."""
    words = _int_words(int(root_seed))
    for t in tags:
        words.extend(_str_tag_words(t) if isinstance(t, str) else _int_words(int(t)))
    return np.array(words, dtype=np.uint32)


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
