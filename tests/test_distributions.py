import math

import numpy as np
import pytest
from scipy.integrate import quad

from rwrelab import ScalarDist
from rwrelab.rng import generator


def test_two_point_moments_exact():
    d = ScalarDist.two_point(1.0, 2.0, 0.5)
    assert d.moment(1) == 1.5
    assert d.moment(-1) == 0.75
    assert d.moment(2) == 2.5
    assert d.moment(-2) == 0.625
    assert d.moment(0) == 1.0
    assert d.moment(3) == (1 + 8) / 2


def test_uniform_moments_match_quadrature():
    # independent oracle: numeric quadrature of x^p / (hi - lo)
    d = ScalarDist.uniform(1.0, 10.0)
    for p in (-2.5, -2.0, -1.0, 1.0, 2.0, 2.5):
        ref, _ = quad(lambda x: x**p / 9.0, 1.0, 10.0)
        assert d.moment(p) == pytest.approx(ref, rel=1e-10)
    ref_log, _ = quad(lambda x: math.log(x) / 9.0, 1.0, 10.0)
    assert d.log_moment() == pytest.approx(ref_log, rel=1e-10)


def test_uniform_1_x_closed_forms():
    # conductances uniform on [1, x]: A=(1+x)/2, B=log x/(x-1),
    # C=(x^3-1)/(3(x-1)), D=1/x
    for x in (2.0, 10.0):
        d = ScalarDist.uniform(1.0, x)
        assert d.moment(1) == pytest.approx((1 + x) / 2, rel=1e-14)
        assert d.moment(-1) == pytest.approx(math.log(x) / (x - 1), rel=1e-14)
        assert d.moment(2) == pytest.approx((x**3 - 1) / (3 * (x - 1)), rel=1e-14)
        assert d.moment(-2) == pytest.approx(1.0 / x, rel=1e-14)


def test_empirical_and_constant():
    d = ScalarDist.empirical([1.0, 2.0, 4.0], [0.25, 0.5, 0.25])
    assert d.moment(1) == 0.25 + 1.0 + 1.0
    assert ScalarDist.constant(3.0).moment(-1) == pytest.approx(1 / 3)


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        ScalarDist.constant(0.0)
    with pytest.raises(ValueError):
        ScalarDist.two_point(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        ScalarDist.two_point(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ScalarDist.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        ScalarDist.empirical([1.0, 2.0], [0.6, 0.5])


@pytest.mark.parametrize("spec", [
    "constant:1.5",
    "two-point:1,2:0.5",
    "uniform:1,10",
    "empirical:1,2,4:0.25,0.5,0.25",
])
def test_spec_string_roundtrip(spec):
    d = ScalarDist.from_spec(spec)
    again = ScalarDist.from_spec(d.spec_string())
    assert d == again


def test_bad_specs_raise():
    for bad in ("gauss:0,1", "two-point:1,2", "uniform:1", "constant:-3"):
        with pytest.raises(ValueError):
            ScalarDist.from_spec(bad)


def test_sampling_frequencies_match_weights():
    d = ScalarDist.two_point(1.0, 2.0, 0.3)
    u = generator(123, "dist-test").random(200_000)
    x = d.from_uniforms(u)
    frac = float(np.mean(x == 1.0))
    se = math.sqrt(0.3 * 0.7 / x.size)
    assert abs(frac - 0.3) < 4 * se


def test_uniform_sampling_range_and_mean():
    d = ScalarDist.uniform(2.0, 5.0)
    u = generator(7, "dist-test").random(100_000)
    x = d.from_uniforms(u)
    assert x.min() > 2.0 and x.max() <= 5.0
    assert abs(x.mean() - 3.5) < 4 * (3.0 / math.sqrt(12 * x.size))
