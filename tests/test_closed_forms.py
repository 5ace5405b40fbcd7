import itertools
import math
import time

import numpy as np
import pytest

from rwrelab import (CltCheck, IIDConductance, IIDOmega, ScalarDist,
                     a1_coefficient, a1_uniform, check_clt_condition,
                     coinflip_second_right_derivative, coinflip_taylor,
                     esbar_rcm, rcm_discrete_taylor, sigma2_iid_omega,
                     sigma2_rcm, sigma2_rcm_at_zero, sigma2_rcm_direct,
                     uniform_conductance_moments, velocity_coinflip,
                     velocity_iid_omega, velocity_iid_omega_right_derivative,
                     velocity_rcm_continuous, velocity_rcm_discrete)
from rwrelab import closed_forms, series

# frozen reference values (high-precision evaluations of the closed forms)
LAM_PLUS_125 = 0.11157177565710488      # log(1.25)/2
V_IID_LAM1 = 0.7106165336385011         # (1 - 1.25/e^2)/(1 + 1.25/e^2)
V_RCM_HALF = 0.4330039807495943         # two-point {1,2} fair at lam = 0.5
ESBAR_HALF = 2.3094475904559846         # 1 + 2.25/(e - 1)
SIG2_DET_1 = 0.4199743416140261         # 4/(e + 1/e)^2
SIG2_TP_1 = 0.45203898987853636         # two-point {1,2} fair at lam = 1
SIG2_IID_1 = 0.5577607043180343         # rho in {1/2,2} fair at lam = 1,
                                        # frozen from the site-exponent
                                        # double-sum oracle
SIG2_IID_0195 = 24.368675856177235      # same law at lam = 0.195, from the
                                        # diagonal series summed to 6000
                                        # terms at 40 digits
VCF_HALF = 1.3583555390285376
VCF_ONE = 3.107584485558382
CF_D2 = 0.5905420991926182              # 16(ab-1)/(b(1+ab)^2), a=1.5 b=0.75
CLT_THRESHOLD = 0.23363309127597598     # log(4.0625)/6

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# i.i.d. jump probabilities
# ---------------------------------------------------------------------------

def test_iid_omega_thresholds_and_branches():
    res = velocity_iid_omega(0.0, 1.25, 1.25)
    assert res.v == 0.0 and res.regime == "zero"
    assert res.lambda_plus == pytest.approx(LAM_PLUS_125, abs=1e-15)
    assert res.lambda_minus == pytest.approx(-LAM_PLUS_125, abs=1e-15)
    assert velocity_iid_omega(1.0, 1.25, 1.25).v == pytest.approx(
        V_IID_LAM1, abs=1e-15)
    assert velocity_iid_omega(-1.0, 1.25, 1.25).v == pytest.approx(
        -V_IID_LAM1, abs=1e-15)
    # window is closed: v = 0 exactly at both thresholds
    assert velocity_iid_omega(LAM_PLUS_125, 1.25, 1.25).v == 0.0


def test_iid_omega_constant_rho_everywhere_analytic():
    # rho = C deterministic: v = (1 - C e^-2lam)/(1 + C e^-2lam) for all lam
    c = 2.0
    for lam in np.linspace(-2, 2, 17):
        res = velocity_iid_omega(lam, c, 1.0 / c)
        q = c * math.exp(-2 * lam)
        if lam != 0.5 * math.log(c):
            assert res.v == pytest.approx((1 - q) / (1 + q), abs=1e-14)


def test_iid_omega_rejects_impossible_moments():
    with pytest.raises(ValueError):
        velocity_iid_omega(0.0, 0.5, 0.5)   # E[rho] E[1/rho] < 1


def test_threshold_derivative_signature():
    # right derivative 1, left derivative 0 at the finite threshold
    assert velocity_iid_omega_right_derivative(LAM_PLUS_125, 1.25) == \
        pytest.approx(1.0, abs=1e-14)
    h = 1e-5
    left = (velocity_iid_omega(LAM_PLUS_125, 1.25, 1.25).v
            - velocity_iid_omega(LAM_PLUS_125 - h, 1.25, 1.25).v) / h
    assert left == 0.0


# ---------------------------------------------------------------------------
# discrete RCM
# ---------------------------------------------------------------------------

def test_rcm_discrete_values_and_oddness():
    assert velocity_rcm_discrete(0.0, 1.5, 0.75).v == 0.0
    assert velocity_rcm_discrete(1.0, 1.0, 1.0).v == pytest.approx(
        math.tanh(1.0), abs=1e-15)
    assert velocity_rcm_discrete(0.5, 1.5, 0.75).v == pytest.approx(
        V_RCM_HALF, abs=1e-15)
    for lam in (0.3, 0.9, 2.1):
        assert velocity_rcm_discrete(-lam, 1.5, 0.75).v == \
            -velocity_rcm_discrete(lam, 1.5, 0.75).v


def test_rcm_discrete_taylor_coefficients():
    c1, c2 = rcm_discrete_taylor(1.5, 0.75)
    assert c1 == pytest.approx(1 / 1.125, rel=1e-15)
    assert c2 == pytest.approx(0.125 / 1.125**2, rel=1e-15)
    # finite-difference oracle on the closed form
    h = 1e-4
    v = lambda t: velocity_rcm_discrete(t, 1.5, 0.75).v
    assert (v(h) / h) == pytest.approx(c1 + c2 * h, rel=1e-6)


def test_rcm_discrete_rejects_ab_below_one():
    with pytest.raises(ValueError):
        velocity_rcm_discrete(1.0, 1.0, 0.9)


def test_rcm_continuous():
    assert velocity_rcm_continuous(0.0, 0.75).v == 0.0
    assert velocity_rcm_continuous(1.0, 1.0).v == pytest.approx(
        2 * math.sinh(1.0), abs=1e-15)
    assert velocity_rcm_continuous(2.0, math.inf).v == 0.0
    # derivative at 0 equals 2/B, the unbiased diffusion coefficient
    h = 1e-6
    fd = velocity_rcm_continuous(h, 0.75).v / h
    assert fd == pytest.approx(2 / 0.75, rel=1e-9)


def test_esbar_rcm():
    assert esbar_rcm(50.0, 1.5, 0.75).value == pytest.approx(1.0, abs=1e-15)
    assert esbar_rcm(0.5, 1.5, 0.75).value == pytest.approx(ESBAR_HALF, abs=1e-13)
    assert esbar_rcm(0.0, 1.5, 0.75).diverged
    assert esbar_rcm(-0.3, 1.5, 0.75).diverged
    # independent partial-sum oracle: 1 + 2 sum ab e^-2 lam i
    lam, ab = 0.5, 1.125
    direct = 1.0 + 2.0 * sum(ab * math.exp(-2 * lam * i) for i in range(1, 200))
    assert esbar_rcm(lam, 1.5, 0.75).value == pytest.approx(direct, abs=1e-12)


def test_dichotomy_product_is_one():
    for lam in (0.1, 0.5, 1.0, 2.0):
        prod = esbar_rcm(lam, 1.5, 0.75).value * \
            velocity_rcm_discrete(lam, 1.5, 0.75).v
        assert prod == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# coin-flip model
# ---------------------------------------------------------------------------

def test_coinflip_degenerate_reduces_to_sinh():
    for lam in np.linspace(0, 2.5, 11):
        assert velocity_coinflip(lam, 1.0, 1.0).v == pytest.approx(
            math.exp(lam) - math.exp(-lam), rel=1e-13, abs=1e-13)


def test_coinflip_values_and_derivatives():
    assert velocity_coinflip(0.0, 1.5, 0.75).v == 0.0
    assert velocity_coinflip(0.5, 1.5, 0.75).v == pytest.approx(VCF_HALF, abs=1e-14)
    assert velocity_coinflip(1.0, 1.5, 0.75).v == pytest.approx(VCF_ONE, abs=1e-14)
    assert velocity_coinflip(-1.0, 1.5, 0.75).v == -velocity_coinflip(1.0, 1.5, 0.75).v
    c1, c2 = coinflip_taylor(1.5, 0.75)
    assert c1 == pytest.approx(4 / (0.75 * 2.125), rel=1e-15)
    d2 = coinflip_second_right_derivative(1.5, 0.75)
    assert d2 == pytest.approx(CF_D2, rel=1e-14)
    assert d2 == pytest.approx(2 * c2, rel=1e-15)
    # zero iff the rates are deterministic
    assert coinflip_second_right_derivative(1.0, 1.0) == 0.0
    # finite-difference oracle for both coefficients
    h = 1e-4
    v = lambda t: velocity_coinflip(t, 1.5, 0.75).v
    assert (v(h) / h) == pytest.approx(c1 + c2 * h, rel=1e-7)
    assert (v(2 * h) - 2 * v(h)) / h**2 == pytest.approx(d2, rel=1e-3)


# ---------------------------------------------------------------------------
# diffusivity
# ---------------------------------------------------------------------------

def test_sigma2_rcm_deterministic_collapse():
    # all moments 1: the bracket collapses to 4/(e^lam + e^-lam)^2, matching
    # the per-step variance 4pq of the biased simple walk
    for lam in (0.3, 1.0, 2.0):
        ref = 4.0 / (math.exp(lam) + math.exp(-lam)) ** 2
        assert sigma2_rcm(lam, 1, 1, 1, 1).sigma2 == pytest.approx(ref, rel=1e-12)
    assert sigma2_rcm(1.0, 1, 1, 1, 1).sigma2 == pytest.approx(SIG2_DET_1, rel=1e-13)


def test_sigma2_rcm_two_point_value_and_routes():
    bd = sigma2_rcm(1.0, 1.5, 0.75, 2.5, 0.625)
    assert bd.sigma2 == pytest.approx(SIG2_TP_1, rel=1e-12)
    assert bd.sigma2 == pytest.approx(bd.sigma1_sq + bd.v_sigma2_sq, rel=1e-15)
    direct = sigma2_rcm_direct(1.0, 1.5, 0.75, 2.5, 0.625)
    assert bd.sigma2 == pytest.approx(direct, rel=1e-10)
    assert bd.sigma2 > 0 and bd.sigma1_sq > 0


def test_sigma2_rcm_even_and_zero_routing():
    for lam in (0.25, 0.8, 1.7):
        a = sigma2_rcm(lam, 1.5, 0.75, 2.5, 0.625).sigma2
        b = sigma2_rcm(-lam, 1.5, 0.75, 2.5, 0.625).sigma2
        assert a == b
    with pytest.raises(ValueError):
        sigma2_rcm(0.0, 1.5, 0.75, 2.5, 0.625)
    assert sigma2_rcm_at_zero(1.5, 0.75) == pytest.approx(1 / 1.125, rel=1e-15)


def test_sigma2_rcm_moment_guards():
    with pytest.raises(ValueError):
        sigma2_rcm(1.0, 1.0, 1.0, 0.9, 1.0)    # C < A^2
    with pytest.raises(ValueError):
        sigma2_rcm(1.0, 1.0, 1.0, 1.0, 0.9)    # D < B^2
    with pytest.raises(ValueError):
        sigma2_rcm(1.0, 1.0, 0.5, 1.0, 1.0)    # AB < 1


def test_sigma2_continuity_near_zero():
    # sigma2(lam) -> 1/(ab) + a1 lam as lam -> 0+
    a, b, c, d = 1.5, 0.75, 2.5, 0.625
    a1 = a1_coefficient(a, b, c, d)
    for lam in (1e-3, 1e-4):
        val = sigma2_rcm(lam, a, b, c, d).sigma2
        assert val == pytest.approx(sigma2_rcm_at_zero(a, b) + a1 * lam,
                                    abs=50 * lam * lam)


def test_a1_values_and_signs():
    assert a1_coefficient(1, 1, 1, 1) == 0.0
    assert a1_coefficient(1.5, 0.75, 2.5, 0.625) == pytest.approx(8 / 27, rel=1e-12)
    for mm in (2.0, 10.0):
        for p in (0.2, 0.5, 0.8):
            d = ScalarDist.two_point(1.0, mm, p)
            assert a1_coefficient(d.moment(1), d.moment(-1),
                                  d.moment(2), d.moment(-2)) > 0
    for x in (1.5, 2.0, 5.0, 10.0):
        assert a1_uniform(x) > 0
    assert a1_uniform(1.0001) == pytest.approx(0.0, abs=1e-3)


def test_uniform_conductance_moments_fig2_inputs():
    a, b, c, d = uniform_conductance_moments(10.0)
    assert a == pytest.approx(5.5, rel=1e-14)
    assert b == pytest.approx(math.log(10) / 9, rel=1e-14)
    assert c == pytest.approx(37.0, rel=1e-14)
    assert d == pytest.approx(0.1, rel=1e-14)


def test_a1_uniform_expanded_rational_form():
    # independent route: substituting the uniform-[1,x] moments into a1 and
    # clearing denominators gives an explicit rational-log expression
    def expanded(x):
        ll = math.log(x)
        return (4 / (x * (x + 1)) * (x - 1) ** 3 / ll ** 3
                + 16 / 3 * (x ** 3 - 1) / ((x + 1) ** 3 * ll)
                - 10 * (x - 1) / ((x + 1) * ll)
                + 4 * (x - 1) ** 2 / ((x + 1) ** 2 * ll ** 2))
    for x in (1.5, 2.0, 5.0, 10.0):
        assert a1_uniform(x) == pytest.approx(expanded(x), rel=1e-12)


def test_a1_two_point_expanded_polynomial_form():
    # independent route: for conductances M w.p. p and 1 w.p. 1-p, the
    # product (ab)^3 a1 expands to a quartic in p with coefficients in
    # M' = M + 1/M and M'' = M^2 + 1/M^2
    for mm in (2.0, 10.0):
        mp = mm + 1 / mm
        mpp = mm * mm + 1 / (mm * mm)
        for p in (0.2, 0.5, 0.8):
            d = ScalarDist.two_point(mm, 1.0, p)
            a, b = d.moment(1), d.moment(-1)
            poly = (p * (6 - 5 * mp + 2 * mpp)
                    + p**2 * (-36 + 25 * mp - 7 * mpp)
                    + p**3 * (60 - 40 * mp + 10 * mpp)
                    + p**4 * (-30 + 20 * mp - 5 * mpp))
            mine = a1_coefficient(a, b, d.moment(2), d.moment(-2))
            assert mine == pytest.approx(poly / (a * b) ** 3, rel=1e-12)
            assert poly > 0


# ---------------------------------------------------------------------------
# i.i.d. jump-probability diffusivity
# ---------------------------------------------------------------------------

def test_sigma2_iid_matches_rcm_in_deterministic_case():
    assert sigma2_iid_omega(1.0, 1.0, 1.0).sigma2 == pytest.approx(
        SIG2_DET_1, rel=1e-12)
    assert sigma2_iid_omega(1.0, 1.0, 1.0).v_sigma2_sq == pytest.approx(0.0, abs=1e-15)


def test_sigma2_iid_regression_against_double_sum_oracle():
    bd = sigma2_iid_omega(1.0, 1.25, 2.125)
    assert bd.sigma2 == pytest.approx(SIG2_IID_1, rel=1e-11)
    assert bd.e_vu == pytest.approx(bd.e_u**2, rel=1e-14)     # independence
    assert bd.e_vu2 == pytest.approx(bd.e_u * bd.e_u2, rel=1e-14)


def _iid_cov_diagonals(m1, m2, q):
    """The covariance sum term by term: diagonal sums b_k q^{k+2} of the
    shifted-product covariance array, organized by k = i + j.  Independence
    kills every pair with shift n > k; overlapping pairs contribute
    m1^{k+2} (beta^{overlap} - 1) with beta = m2/m1^2 >= 1."""
    beta = m2 / (m1 * m1)
    for k in itertools.count(1):
        j = np.arange(1, k + 1)             # j >= n >= 1, i = k - j
        total = 0.0
        for n in range(1, k + 1):
            jj = j[j >= n]
            overlap = np.minimum(k - jj, jj - n) + 1
            total += float(np.sum(beta ** overlap - 1.0))
        yield m1 ** (k + 2) * total * q ** (k + 2)


@pytest.mark.parametrize("law", [ScalarDist.two_point(0.5, 2.0, 0.5),
                                 ScalarDist.uniform(0.5, 1.5),
                                 ScalarDist.two_point(0.25, 1.25, 0.5)],
                         ids=["two-point", "uniform", "mean-below-one"])
def test_sigma2_iid_covariance_closed_form_matches_series(law):
    m1, m2 = law.moment(1), law.moment(2)
    for lam in (0.25, 0.3, 0.45, 0.6, 1.0):
        q = math.exp(-2.0 * lam)
        terms = _iid_cov_diagonals(m1, m2, q)
        # one term per block: the series is pulled no further than its stop
        ref = series._certify(lambda sizes: (np.array([next(terms)])
                                             for _ in sizes), 1e-12, 10**6)
        assert ref.converged
        closed = closed_forms._iid_shift_cov(m1 * q, m2 / (m1 * m1))
        assert abs(closed - ref.value) <= ref.error_bound + 1e-14 * abs(closed)


def test_sigma2_iid_finite_close_to_its_threshold():
    # sigma2 is finite for lam > log(E[rho^2])/4 = 0.1884; the closed form
    # serves lam = 0.195, where the term-by-term series overflowed
    start = time.perf_counter()
    bd = sigma2_iid_omega(0.195, 1.25, 2.125)
    assert time.perf_counter() - start < 0.5
    assert bd.sigma2 == pytest.approx(SIG2_IID_0195, rel=1e-12)


def test_sigma2_iid_regime_guard():
    with pytest.raises(ValueError, match="diverged"):
        sigma2_iid_omega(0.1, 1.25, 2.125)
    with pytest.raises(ValueError):
        sigma2_iid_omega(1.0, 2.0, 1.0)    # E[rho^2] < E[rho]^2


# ---------------------------------------------------------------------------
# CLT condition checks
# ---------------------------------------------------------------------------

def test_clt_condition_iid_omega_threshold():
    rho = ScalarDist.two_point(0.5, 2.0, 0.5)   # E[rho^3] = 4.0625
    model = IIDOmega(rho)
    assert check_clt_condition(model, CLT_THRESHOLD + 1e-6, 1.0).passed
    res = check_clt_condition(model, CLT_THRESHOLD - 1e-6, 1.0)
    assert not res.passed and res.failed_condition is not None


def test_clt_condition_trivial_and_conductance():
    const = IIDOmega(ScalarDist.constant(1.0))
    assert check_clt_condition(const, 0.01, 0.5).passed
    model = IIDConductance(TWO_POINT)
    assert check_clt_condition(model, 1.0, 1.0).passed
    assert not check_clt_condition(model, 0.0, 1.0).passed
    with pytest.raises(ValueError):
        check_clt_condition("not-a-model", 1.0, 1.0)


# ---------------------------------------------------------------------------
# monotonicity and Jensen properties
# ---------------------------------------------------------------------------

def test_velocity_monotonicity_grids():
    grid = np.linspace(-2.0, 2.0, 50)
    for vfun in (lambda l: velocity_rcm_discrete(l, 1.5, 0.75).v,
                 lambda l: velocity_rcm_continuous(l, 0.75).v,
                 lambda l: velocity_coinflip(l, 1.5, 0.75).v):
        vals = np.array([vfun(l) for l in grid])
        assert np.all(np.diff(vals) > 0)
    vals = np.array([velocity_iid_omega(l, 1.25, 1.25).v for l in grid])
    assert np.all(np.diff(vals) >= 0)
    inside = (grid >= -LAM_PLUS_125) & (grid <= LAM_PLUS_125)
    assert np.all(vals[inside] == 0.0)


def test_jensen_bound_on_product_moments():
    # E[rho_0...rho_i] >= exp(E[log rho] (i+1)) from exact moments, i <= 20
    rho = ScalarDist.two_point(0.5, 2.0, 0.6)
    m1, lr = rho.moment(1), rho.log_moment()
    for i in range(21):
        assert m1 ** (i + 1) >= math.exp(lr * (i + 1)) * (1 - 1e-12)
    # conductance ratios telescope: E[prod] = ab >= 1 = exp(0)
    ab = TWO_POINT.moment(1) * TWO_POINT.moment(-1)
    assert ab >= 1.0
