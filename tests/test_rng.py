import tracemalloc

import numpy as np
import pytest

from rwrelab.rng import (FIRST_FILL, REPLICA_BLOCK, SITE_ORIGIN, BlockUniforms,
                         CounterStream, RowStreams, derive_seed, generator,
                         seed_sequence, tag_int)


def test_counter_stream_overlap_consistency():
    s = CounterStream(42, "env", "tag", 3)
    a = s.uniforms(0, 100)
    b = s.uniforms(40, 100)
    assert np.array_equal(a[40:], b[:60])
    assert np.array_equal(s.site_uniforms(-10, 10), s.site_uniforms(-10, 10))
    # sub-window of a site range equals the slice of the larger range
    wide = s.site_uniforms(-50, 50)
    assert np.array_equal(s.site_uniforms(-20, 5), wide[30:56])


def test_streams_with_different_tags_differ():
    a = CounterStream(42, "env", 0).uniforms(0, 50)
    b = CounterStream(42, "env", 1).uniforms(0, 50)
    c = CounterStream(43, "env", 0).uniforms(0, 50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


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


def test_block_uniforms_independent_of_refill():
    a = BlockUniforms(3, ("walk",), 0, 100, steps_per_refill=16)
    b = BlockUniforms(3, ("walk",), 0, 100, steps_per_refill=512)
    for t in (0, 15, 16, 17, 200):
        assert np.array_equal(a.step(t), b.step(t))


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
    for tags in TAGS:
        ss = np.random.SeedSequence((seed,) + tuple(tag_int(t) for t in tags))
        assert seed_sequence(seed, *tags).entropy == ss.entropy
        stream = CounterStream(seed, *tags)
        ref = np.random.Generator(np.random.PCG64(ss))
        assert np.array_equal(stream.uniforms(0, 16), ref.random(16))
        bit_gen = np.random.PCG64(ss)
        bit_gen.advance(2**41 + 3)
        assert np.array_equal(stream.uniforms(2**41 + 3, 5),
                              np.random.Generator(bit_gen).random(5))


def test_counter_stream_rejects_negative_words():
    for args in ((-1,), (3, -2)):
        with pytest.raises(ValueError):
            CounterStream(*args)
        with pytest.raises(ValueError):
            seed_sequence(*args)


ROW_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 12345, 2**100 + 7]
ROW_RANGES = [range(0, 3), range(2**32 - 3, 2**32 + 2),   # r: one word, then two
              range(2**64 - 2, 2**64 + 1)]                # two, then three


@pytest.mark.filterwarnings("error")   # a NumPy integer-overflow warning fails
@pytest.mark.parametrize("seed", ROW_SEEDS)
def test_row_streams_are_the_numpy_seeded_streams(seed):
    width = 7
    for tag in ("iid-conductance", 17, np.int64(2**40 + 5)):
        for rows in ROW_RANGES:
            streams = RowStreams(seed, ("env", tag), rows, ("c",))
            for lo in (SITE_ORIGIN, 10**6):
                out = np.empty((len(rows), width))
                streams.site_uniforms(lo, out)
                tail = np.empty((2, width))
                streams.site_uniforms(lo, tail, first=len(rows) - 2)
                for k, r in enumerate(rows):
                    ss = np.random.SeedSequence(
                        (seed, tag_int("env"), tag_int(tag), r, tag_int("c")))
                    bit_gen = np.random.PCG64(ss)
                    bit_gen.advance(lo - SITE_ORIGIN)
                    ref = np.random.Generator(bit_gen).random(width)
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
        stream = CounterStream(seed, *tags, b)
        parts.append(stream.uniforms(t * REPLICA_BLOCK + a, z - a))
        r += z - a
    return np.concatenate(parts)


STEP_ORDER = [0, 15, 16, 1030, 3, 47, 48, 2047, 2048, 1007, 1008, 1023, 1024,
              5000, 16, 0, 111, 112, 1100]


@pytest.mark.parametrize("refill", [1, 7, 30, 1024])
def test_block_uniforms_random_access_matches_streams(refill):
    lo, hi = 700, 3200
    uni = BlockUniforms(4, ("dir",), lo, hi - lo, steps_per_refill=refill)
    for t in STEP_ORDER + STEP_ORDER[::-1]:
        assert np.array_equal(uni.step(t), _reference_step(4, ("dir",), lo, hi, t))


def test_block_uniforms_split_ranges_agree():
    lo, hi = 700, 3200
    full = BlockUniforms(4, ("hold",), lo, hi - lo)
    cuts = [lo, 1024, 1025, 2100, hi]
    parts = [BlockUniforms(4, ("hold",), a, b - a, steps_per_refill=refill)
             for (a, b), refill in zip(zip(cuts, cuts[1:]), (1024, 5, 64, 30))]
    for t in STEP_ORDER:
        row = full.step(t)
        assert np.array_equal(row, np.concatenate([p.step(t) for p in parts]))


def test_short_walk_holds_one_small_buffer(monkeypatch):
    # 11 steps on 1e4 lanes: one fill of FIRST_FILL steps, and never more
    # than FIRST_FILL x lanes uniforms held at once (plus one block's draws)
    lanes = 10_000
    drawn = []
    uniforms = CounterStream.uniforms

    def counted(self, start, count):
        drawn.append(count)
        return uniforms(self, start, count)

    monkeypatch.setattr(CounterStream, "uniforms", counted)
    tracemalloc.start()
    try:
        uni = BlockUniforms(8, ("hold",), 0, lanes)
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for t in range(11):
            assert uni.step(t).shape == (lanes,)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    blocks = -(-lanes // REPLICA_BLOCK)
    assert drawn == [FIRST_FILL * REPLICA_BLOCK] * blocks
    assert peak <= 8 * FIRST_FILL * (lanes + REPLICA_BLOCK) + 65536
