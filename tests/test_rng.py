import tracemalloc

import numpy as np
import pytest

from rwrelab import rng
from rwrelab.rng import (REPLICA_BLOCK, SITE_ORIGIN, BlockExponentials,
                         BlockUniforms, RowStreams, derive_seed, generator,
                         seed_sequence, tag_int)


def _numpy_stream(seed, *tags, start=0):
    """NumPy's PCG64 seeded with the tuple (seed, *tag_ints), advanced to
    draw number start: the reference for every stream."""
    bit_gen = np.random.PCG64(np.random.SeedSequence(
        (seed,) + tuple(tag_int(t) for t in tags)))
    bit_gen.advance(start)
    return np.random.Generator(bit_gen)


def _draw(streams, start, count, first=0, rows=1):
    out = np.empty((rows, count))
    streams.uniforms(start, out, first)
    return out


def _sites(streams, lo, hi):
    out = np.empty((1, hi - lo + 1))
    streams.site_uniforms(lo, out)
    return out[0]


def test_counter_stream_overlap_consistency():
    # a counter stream: one row of a RowStreams, read at any counter
    s = RowStreams(42, ("env", "tag"), range(3, 4), ())
    a = _draw(s, 0, 100)[0]
    b = _draw(s, 40, 100)[0]
    assert np.array_equal(a[40:], b[:60])
    assert np.array_equal(_sites(s, -10, 10), _sites(s, -10, 10))
    # sub-window of a site range equals the slice of the larger range
    wide = _sites(s, -50, 50)
    assert np.array_equal(_sites(s, -20, 5), wide[30:56])
    # a row read from a wider range is the one-row range's stream
    rows = RowStreams(42, ("env", "tag"), range(1, 6), ())
    assert np.array_equal(_draw(rows, 40, 100, first=2)[0], b)
    assert np.array_equal(_draw(rows, 0, 100, rows=5)[2], a)


def test_streams_with_different_tags_differ():
    a, b = _draw(RowStreams(42, ("env",), range(2), ()), 0, 50, rows=2)
    c = _draw(RowStreams(43, ("env",), range(1), ()), 0, 50)[0]
    d = _draw(RowStreams(42, ("env",), range(1), ("x",)), 0, 50)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_tag_int_and_derive_seed_stable():
    assert tag_int("walk") == tag_int("walk")
    assert tag_int(7) == 7
    assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
    assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)


def test_block_uniforms_slice_independence():
    # stepping replicas [0, 2000) in one go or in pieces gives the same lanes
    full = BlockUniforms(9, ("walk",), 0, 2000)
    left = BlockUniforms(9, ("walk",), 0, 800)
    right = BlockUniforms(9, ("walk",), 800, 1200)
    for t in (0, 1, 5, 1030):
        u = full.step(t)
        assert np.array_equal(u[:800], left.step(t))
        assert np.array_equal(u[800:], right.step(t))


def test_generator_is_sequential_and_seeded():
    g1 = generator(5, "traj")
    g2 = generator(5, "traj")
    assert np.array_equal(g1.random(10), g2.random(10))
    assert seed_sequence(5, "a").entropy != seed_sequence(5, "b").entropy


SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64 + 12345, 2**100 + 7]
TAGS = [(), (5,), ("env", "iid-conductance", 17, "c"), ("walk", 2**40),
        (0, "x", np.int64(3)), ("hold", 2**64 + 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_counter_stream_is_the_tuple_seeded_stream(seed):
    # the tags before the row (head) or after it (tail), rows of one to three
    # words: each one-row range reads NumPy's tuple-seeded PCG64
    for tags in TAGS:
        ss = np.random.SeedSequence((seed,) + tuple(tag_int(t) for t in tags))
        assert seed_sequence(seed, *tags).entropy == ss.entropy
        for r in (0, 2**32 + 1, 2**64 + 5):
            for streams, ref in (
                    (RowStreams(seed, tags, range(r, r + 1), ()), (*tags, r)),
                    (RowStreams(seed, (), range(r, r + 1), tags), (r, *tags))):
                assert np.array_equal(_draw(streams, 0, 16)[0],
                                      _numpy_stream(seed, *ref).random(16))
                assert np.array_equal(
                    _draw(streams, 2**41 + 3, 5)[0],
                    _numpy_stream(seed, *ref, start=2**41 + 3).random(5))


def test_counter_stream_rejects_negative_words():
    for args in ((-1, (), range(1), ()), (3, (-2,), range(1), ()),
                 (3, (), range(1), (-2,)), (3, (), range(-1, 0), ())):
        with pytest.raises(ValueError):
            RowStreams(*args)
    for args in ((-1,), (3, -2)):
        with pytest.raises(ValueError):
            seed_sequence(*args)


ROW_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 12345, 2**100 + 7]
T = rng._ARRAY_SEEDING
# (rows, the sizes of the word-count groups seeded as arrays); the other
# groups are seeded row by row
ROW_RANGES = [
    (range(0, 3), []),
    (range(2**32 - 3, 2**32 + 2), []),         # r: one word, then two
    (range(2**64 - 2, 2**64 + 1), []),         # two, then three
    (range(5, 5 + T - 1), []),                 # one row short of the threshold
    (range(5, 5 + T), [T]),
    (range(2**32 - T, 2**32 + T), [T, T]),
    (range(2**64 - T - 1, 2**64 + T), [T + 1, T]),
    (range(2**32 - 2, 2**32 + T + 3), [T + 3]),  # row by row, then an array
]


@pytest.mark.filterwarnings("error")   # a NumPy integer-overflow warning fails
@pytest.mark.parametrize("seed", ROW_SEEDS)
def test_row_streams_are_the_numpy_seeded_streams(seed, monkeypatch):
    seeded = []
    seed_words = rng._seed_words

    def recorded(entropy):
        seeded.append(len(entropy))
        return seed_words(entropy)

    monkeypatch.setattr(rng, "_seed_words", recorded)
    width = 7
    for tag in ("iid-conductance", 17, np.int64(2**40 + 5)):
        for rows, array_groups in ROW_RANGES:
            seeded.clear()
            streams = RowStreams(seed, ("env", tag), rows, ("c",))
            assert seeded == array_groups
            for lo in (SITE_ORIGIN, 10**6):
                out = np.empty((len(rows), width))
                streams.site_uniforms(lo, out)
                tail = np.empty((2, width))
                streams.site_uniforms(lo, tail, first=len(rows) - 2)
                for k, r in enumerate(rows):
                    ref = _numpy_stream(seed, "env", tag, r, "c",
                                        start=lo - SITE_ORIGIN).random(width)
                    assert np.array_equal(out[k], ref), (tag, r, lo)
                assert np.array_equal(tail, out[-2:])


def test_row_streams_reject_addresses_below_the_origin():
    streams = RowStreams(1, ("env",), range(2), ("c",))
    out = np.empty((2, 3))
    with pytest.raises(ValueError):
        streams.site_uniforms(SITE_ORIGIN - 1, out)
    with pytest.raises(ValueError):
        streams.uniforms(-1, out)


def _reference_step(seed, tags, lo, hi, t):
    """Uniforms of replicas [lo, hi) at step t, read off the block streams."""
    parts = []
    r = lo
    while r < hi:
        b, a = divmod(r, REPLICA_BLOCK)
        z = min(REPLICA_BLOCK, a + hi - r)
        stream = _numpy_stream(seed, *tags, b, start=t * REPLICA_BLOCK + a)
        parts.append(stream.random(z - a))
        r += z - a
    return np.concatenate(parts)


STEP_ORDER = [0, 15, 16, 1030, 3, 47, 48, 2047, 2048, 1007, 1008, 1023, 1024,
              5000, 16, 0, 111, 112, 1100]


@pytest.mark.parametrize("block", [1, 7, 16, 30, 64])
def test_block_uniforms_random_access_matches_streams(block):
    # a block of rows read as one call from each step, in any order
    lo, hi = 700, 3200
    uni = BlockUniforms(4, ("dir",), lo, hi - lo)
    for t in STEP_ORDER + STEP_ORDER[::-1]:
        rows = uni.rows(t, t + block)
        assert rows.shape == (block, hi - lo)
        for j in sorted({0, block // 2, block - 1}):
            want = _reference_step(4, ("dir",), lo, hi, t + j)
            assert np.array_equal(rows[j], want)


PARTITIONS = [[(0, 200)], [(0, 16), (16, 48), (48, 64), (64, 128), (128, 200)],
              [(0, 1)] + [(t, t + 7) for t in range(1, 197, 7)] + [(197, 200)],
              [(130, 200), (0, 64), (64, 130)]]


def test_block_uniforms_independent_of_partition():
    # however steps 0..199 are cut into blocks, and in whatever order the
    # blocks are read, each step's row is the same
    for lo, hi in ((0, 100), (1000, 1050)):
        uni = BlockUniforms(3, ("walk",), lo, hi - lo)
        want = np.array([_reference_step(3, ("walk",), lo, hi, t)
                         for t in range(200)])
        for blocks in PARTITIONS:
            got = np.empty_like(want)
            for t, stop in blocks:
                got[t:stop] = uni.rows(t, stop)
            assert np.array_equal(got, want), (lo, blocks)


def test_block_exponentials_are_the_uniforms_transformed():
    # the in-place transform of whole blocks gives each row's -log1p(-u),
    # bit for bit, in every block
    lo, hi = 700, 3200
    uni = BlockUniforms(4, ("hold",), lo, hi - lo)
    exp = BlockExponentials(4, ("hold",), lo, hi - lo)
    for t in STEP_ORDER:
        assert np.array_equal(exp.step(t), -np.log1p(-uni.step(t)))
        assert np.array_equal(exp.rows(t, t + 20), -np.log1p(-uni.rows(t, t + 20)))


def test_block_uniforms_split_ranges_agree():
    lo, hi = 700, 3200
    full = BlockUniforms(4, ("hold",), lo, hi - lo)
    cuts = [lo, 1024, 1025, 2100, hi]
    parts = [BlockUniforms(4, ("hold",), a, b - a) for a, b in zip(cuts, cuts[1:])]
    for t in STEP_ORDER:
        row = full.step(t)
        assert np.array_equal(row, np.concatenate([p.step(t) for p in parts]))
        rows = full.rows(t, t + 9)
        assert np.array_equal(rows, np.hstack([p.rows(t, t + 9) for p in parts]))


def test_short_walk_holds_one_small_buffer(monkeypatch):
    # one block of K steps on 1e4 lanes draws K steps of each replica block
    # and holds the K x lanes rows plus one replica block's K steps of draws
    lanes = 10_000
    blocks = -(-lanes // REPLICA_BLOCK)
    drawn = []
    uniforms = RowStreams.uniforms

    def counted(self, start, out, first=0):
        drawn.append(out.size)
        return uniforms(self, start, out, first)

    monkeypatch.setattr(RowStreams, "uniforms", counted)
    uni = BlockUniforms(8, ("hold",), 0, lanes)
    for steps in (1, 16, 64):
        drawn.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = uni.rows(5, 5 + steps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rows.shape == (steps, lanes)
        assert drawn == [steps * REPLICA_BLOCK] * blocks
        assert peak <= 8 * steps * (lanes + REPLICA_BLOCK) + 65536
