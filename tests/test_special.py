import math

import numpy as np
import pytest

from rwrelab.special import hurwitz_zeta, ndtr, zeta

scipy_special = pytest.importorskip("scipy.special")


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(
        got.view(np.int64), want.view(np.int64))


# x on (2, 22], with 20, where the direct sum at q = 1 stops before its 9th term
ZETA_X = np.concatenate([np.linspace(2.0, 22.0, 41)[1:], [2.5, 3.0, 20.0]])
ZETA_Q = np.arange(1, 3001)
# q = 2^k + 1 up to 2^49 + 1 crosses into the asymptotic branch (q > 1e8)
ZETA_Q_POW2 = 2 ** np.arange(1, 50, dtype=np.int64) + 1


@pytest.mark.parametrize("q", [ZETA_Q, ZETA_Q.astype(float), ZETA_Q_POW2,
                               ZETA_Q_POW2.astype(float)])
def test_hurwitz_zeta_array_is_scipys(q):
    for x in ZETA_X:
        assert same_bits(hurwitz_zeta(x, q), scipy_special.zeta(x, q)), x


def test_hurwitz_zeta_scalar_is_scipys():
    for x in ZETA_X:
        for q in [*range(1, 40), *(int(v) for v in ZETA_Q[::97]),
                  *(int(v) for v in ZETA_Q_POW2)]:
            got = hurwitz_zeta(x, q)
            assert isinstance(got, float)
            assert same_bits(got, scipy_special.zeta(x, q)), (x, q)
            assert same_bits(hurwitz_zeta(float(x), float(q)), got)
    assert same_bits(hurwitz_zeta(20.0, 1), scipy_special.zeta(20.0, 1.0))
    assert same_bits(zeta(2.5), scipy_special.zeta(2.5, 1.0))


def test_hurwitz_zeta_broadcasts_like_scipy():
    # tiny q: q + 9 rounds to 9, and at q = 1.1e-15 with s near 1 the direct
    # sum takes a 10th term; q^-s overflows to inf at q = 1e-300
    x = np.array([[1.001], [1.01], [2.1], [3.5], [20.0]])
    q = np.array([1.0, 7.5, 1e9, 0.25, 2e-15, 1.1e-15, 5e-16, 1e-20, 1e-300])
    want = scipy_special.zeta(x, q)
    assert same_bits(hurwitz_zeta(x, q), want)
    for i, j in np.ndindex(want.shape):
        assert same_bits(hurwitz_zeta(float(x[i, 0]), float(q[j])), want[i, j])
    gen = np.random.default_rng(3)
    x, q = gen.uniform(1.01, 22.0, 2000), gen.uniform(1e-6, 50.0, 2000)
    assert same_bits(hurwitz_zeta(x, q), scipy_special.zeta(x, q))
    assert hurwitz_zeta(2.5, np.array([])).shape == (0,)


@pytest.mark.parametrize("s, q", [(1.0, 1.0), (0.5, 2.0), (-3.0, 1.0),
                                  (2.5, 0.0), (2.5, -1.5), (math.nan, 1.0),
                                  (2.5, math.nan)])
def test_hurwitz_zeta_rejects_s_at_most_1_and_q_at_most_0(s, q):
    with pytest.raises(ValueError):
        hurwitz_zeta(s, q)
    with pytest.raises(ValueError):
        hurwitz_zeta(np.array([2.5, s]), np.array([1.0, q]))


def test_ndtr_is_scipys_on_every_branch():
    # |x| / sqrt 2 below 1/sqrt 2, below 1, below 8 and beyond; the erfc
    # underflow below about -37.7; signed zeros, infinities and NaN
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001),
                        [0.0, -0.0, math.inf, -math.inf, math.nan, -37.7,
                         -37.6, 1.0, -1.0, math.sqrt(2.0), -math.sqrt(2.0),
                         8.0 * math.sqrt(2.0), -8.0 * math.sqrt(2.0), 1e300,
                         -1e300]])
    assert same_bits(ndtr(x), scipy_special.ndtr(x))
    assert same_bits(ndtr(x.reshape(-1, 2)[:, ::-1]),
                     scipy_special.ndtr(x.reshape(-1, 2)[:, ::-1]))
    for v in x[::997]:
        got = ndtr(float(v))
        assert isinstance(got, float)
        assert same_bits(got, scipy_special.ndtr(v))
    assert ndtr(-40.0) == 0.0 and ndtr(40.0) == 1.0
