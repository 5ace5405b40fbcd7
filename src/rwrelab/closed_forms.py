"""Closed-form velocities, diffusivities and CLT-condition checks.

Moment conventions for the random conductance model (RCM): a = E[c_0],
b = E[1/c_0], cc = E[c_0^2], d = E[1/c_0^2].  For i.i.d. jump ratios:
m1 = E[rho_0], m2 = E[rho_0^2].  All formulas take exact moments, not
samples; basic Jensen / Cauchy-Schwarz consistency is enforced at entry
because the closed forms silently produce garbage for impossible tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ScalarDist
from .environments import IIDConductance, IIDOmega
from .series import CONVERGED, DIVERGED, SeriesValue

_MOMENT_SLACK = 1e-12

POSITIVE = "positive"
ZERO = "zero"
NEGATIVE = "negative"


@dataclass(frozen=True)
class VelocityResult:
    """Asymptotic velocity at one field strength, with the zero-speed window."""

    v: float
    regime: str
    lambda_minus: float
    lambda_plus: float

    def __post_init__(self):
        if self.lambda_minus > self.lambda_plus:
            raise ValueError("lambda_minus must not exceed lambda_plus")


def _regime(v: float) -> str:
    if v > 0:
        return POSITIVE
    if v < 0:
        return NEGATIVE
    return ZERO


# ---------------------------------------------------------------------------
# velocities
# ---------------------------------------------------------------------------

def velocity_iid_omega(lam: float, e_rho: float, e_rho_inv: float) -> VelocityResult:
    """Three-branch velocity for i.i.d. jump probabilities.

    v = (1 - E[rho] e^{-2 lam})/(1 + E[rho] e^{-2 lam}) above
    lam_plus = log(E[rho])/2, the reflected branch below
    lam_minus = -log(E[1/rho])/2, and 0 on the closed window between them.
    """
    if not (e_rho > 0 and e_rho_inv > 0):
        raise ValueError("moments must be positive")
    if e_rho * e_rho_inv < 1.0 - _MOMENT_SLACK:
        raise ValueError("inconsistent moments: E[rho] E[1/rho] < 1")
    lam_plus = 0.5 * math.log(e_rho)
    lam_minus = -0.5 * math.log(e_rho_inv)
    if lam > lam_plus:
        q = e_rho * math.exp(-2.0 * lam)
        v = (1.0 - q) / (1.0 + q)
    elif lam < lam_minus:
        q = e_rho_inv * math.exp(2.0 * lam)
        v = -(1.0 - q) / (1.0 + q)
    else:
        v = 0.0
    return VelocityResult(v, _regime(v), min(lam_minus, lam_plus), lam_plus)


def velocity_iid_omega_right_derivative(lam: float, e_rho: float) -> float:
    """d v / d lam on the upper branch: 4 E[rho] e^{-2 lam} / (1 + E[rho] e^{-2 lam})^2.

    Equals 1 at lam = lam_plus, while the left derivative there is 0: the
    velocity is not differentiable at a finite threshold.
    """
    q = e_rho * math.exp(-2.0 * lam)
    return 4.0 * q / (1.0 + q) ** 2


def velocity_rcm_discrete(lam: float, a: float, b: float) -> VelocityResult:
    """Discrete-time RCM velocity (odd in lam):
    v = (1 - e^{-2 lam}) / (1 - e^{-2 lam} + 2 a b e^{-2 lam}) for lam >= 0."""
    _check_ab(a, b)
    w = -np.expm1(-2 * abs(lam))  # 1 - e^{-2|lam|}
    v = float(w / (w + 2 * a * b * (1 - w)))
    if lam < 0:
        v = -v
    return VelocityResult(v, _regime(v), 0.0, 0.0)


def rcm_discrete_taylor(a: float, b: float) -> tuple[float, float]:
    """(linear, quadratic) Taylor coefficients of the RCM velocity at 0+:
    v = lam/(ab) + (ab-1)/(ab)^2 lam^2 + o(lam^2)."""
    _check_ab(a, b)
    ab = a * b
    return 1.0 / ab, (ab - 1.0) / ab**2


def velocity_rcm_continuous(lam: float, b: float) -> VelocityResult:
    """Continuous-time RCM velocity (e^lam - e^{-lam})/E[1/c_0]; identically
    zero when E[1/c_0] is infinite."""
    if b == math.inf:
        return VelocityResult(0.0, ZERO, -math.inf, math.inf)
    if not b > 0:
        raise ValueError("E[1/c_0] must be positive")
    v = 2.0 * math.sinh(lam) / b
    return VelocityResult(v, _regime(v), 0.0, 0.0)


def velocity_coinflip(lam: float, a: float, b: float) -> VelocityResult:
    """Coin-flip paired-rate velocity (odd in lam), for lam >= 0:

    v = 2(1 - e^{-4 lam}) / (b e^{-lam} (2 + (ab+1) e^{-2 lam} + (ab-1) e^{-4 lam}))

    with a = E[a_0^+], b = E[1/a_0^+]; the two member sequences are assumed
    to share these marginal moments.
    """
    _check_ab(a, b)
    ell = abs(lam)
    ab = a * b
    q2 = math.exp(-2.0 * ell)
    num = -2.0 * math.expm1(-4.0 * ell)
    den = b * math.exp(-ell) * (2.0 + (ab + 1.0) * q2 + (ab - 1.0) * q2 * q2)
    v = num / den
    if lam < 0:
        v = -v
    return VelocityResult(v, _regime(v), 0.0, 0.0)


def coinflip_taylor(a: float, b: float) -> tuple[float, float]:
    """(linear, quadratic) Taylor coefficients of the coin-flip velocity at 0+:
    v = 4 lam/(b(1+ab)) + 8(ab-1)/(b(1+ab)^2) lam^2 + o(lam^2)."""
    _check_ab(a, b)
    ab = a * b
    return 4.0 / (b * (1.0 + ab)), 8.0 * (ab - 1.0) / (b * (1.0 + ab) ** 2)


def coinflip_second_right_derivative(a: float, b: float) -> float:
    """Second right derivative of the coin-flip velocity at 0:
    16 (ab-1) / (b (1+ab)^2); nonzero whenever the rates are genuinely random."""
    c1, c2 = coinflip_taylor(a, b)
    return 2.0 * c2


# ---------------------------------------------------------------------------
# annealed crossing series for the RCM
# ---------------------------------------------------------------------------

def esbar_rcm(lam: float, a: float, b: float) -> SeriesValue:
    """Annealed crossing series mean for the discrete RCM:
    (1 - e^{-2 lam} + 2 a b e^{-2 lam})/(1 - e^{-2 lam}) for lam > 0,
    divergent for lam <= 0."""
    _check_ab(a, b)
    if lam <= 0:
        return SeriesValue(math.inf, math.inf, DIVERGED, 0)
    w = -math.expm1(-2.0 * lam)
    value = (w + 2.0 * a * b * (1.0 - w)) / w
    return SeriesValue(value, 0.0, CONVERGED, 0)


# ---------------------------------------------------------------------------
# diffusivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusivityBreakdown:
    """Diffusion coefficient split into its martingale and covariance parts,
    sigma2 = sigma1_sq + v_sigma2_sq, with the one-sided product moments that
    build them."""

    sigma2: float
    sigma1_sq: float
    v_sigma2_sq: float
    e_u: float
    e_u2: float
    e_vu: float
    e_vu2: float


def _check_ab(a: float, b: float) -> None:
    if not (a > 0 and b > 0):
        raise ValueError("moments must be positive")
    if a * b < 1.0 - _MOMENT_SLACK:
        raise ValueError("inconsistent moments: E[c] E[1/c] < 1")


def _check_rcm_moments(a: float, b: float, cc: float, d: float) -> None:
    _check_ab(a, b)
    if cc < a * a * (1.0 - _MOMENT_SLACK) or d < b * b * (1.0 - _MOMENT_SLACK):
        raise ValueError("inconsistent moments: need E[c^2] >= E[c]^2 and "
                         "E[1/c^2] >= E[1/c]^2")


def rcm_u_moments(lam: float, a: float, b: float, cc: float,
                  d: float) -> tuple[float, float, float, float]:
    """One-sided product moments (E[U], E[U^2], E[VU], E[VU^2]) of the i.i.d.
    RCM at lam > 0, where U sums leftward conductance ratios and V rightward
    ones."""
    if not lam > 0:
        raise ValueError("moments require lam > 0")
    q = np.exp(-2.0 * lam)
    w1 = -np.expm1(-2.0 * lam)   # 1 - q
    w2 = -np.expm1(-4.0 * lam)   # 1 - q^2
    e_u = a * b * q / w1
    core = cc * q * q / w2 + 2 * a * a * q**3 / (w1 * w2)
    e_u2 = d * core
    e_vu = a * b * q * q / (w1 * w1)
    e_vu2 = b * b * (q / w1) * core
    return float(e_u), float(e_u2), float(e_vu), float(e_vu2)


def sigma2_rcm(lam: float, a: float, b: float, cc: float,
               d: float) -> DiffusivityBreakdown:
    """Diffusion coefficient of the i.i.d. discrete-time RCM at lam != 0,
    assembled from the one-sided product moments; even in lam.

    lam = 0 is a removable singularity of the printed formula and is served
    by sigma2_rcm_at_zero.
    """
    if lam == 0:
        raise ValueError("lam = 0 is served by sigma2_rcm_at_zero")
    _check_rcm_moments(a, b, cc, d)
    ell = abs(lam)
    e_u, e_u2, e_vu, e_vu2 = rcm_u_moments(ell, a, b, cc, d)
    q = np.exp(-2.0 * ell)
    w1 = -np.expm1(-2.0 * ell)
    denom = (1 + 2 * e_u) ** 3
    sigma1 = 4 * (e_u2 + e_u + 2 * e_vu2 + 2 * e_vu) / denom
    # sum over shifts of Cov(U, theta^n U): the three overlap regimes of the
    # shifted product collapse to a single geometric factor q/(1-q)
    ab = a * b
    cov_shift = (-ab * ab * q / (w1 * w1) + ab * q / w1
                 + b * b * e_u2 / d) * (q / w1)
    var_u = e_u2 - e_u ** 2
    v_sigma2 = 4 * (var_u + 2 * cov_shift) / denom
    return DiffusivityBreakdown(float(sigma1 + v_sigma2), float(sigma1),
                                float(v_sigma2), e_u, e_u2, e_vu, e_vu2)


def sigma2_rcm_at_zero(a: float, b: float) -> float:
    """Unbiased RCM diffusion coefficient 1/(E[c] E[1/c])."""
    _check_ab(a, b)
    return 1.0 / (a * b)


def sigma2_rcm_direct(lam: float, a: float, b: float, cc: float,
                      d: float) -> float:
    """Independent assembly of sigma2 from the single printed bracket
    (prefactor 4(e^{2 lam}-1)^2/(e^{2 lam}-1+2ab)^3); used to cross-check the
    breakdown route."""
    if lam == 0:
        raise ValueError("lam = 0 is served by sigma2_rcm_at_zero")
    _check_rcm_moments(a, b, cc, d)
    ell = abs(lam)
    e1 = np.expm1(2 * ell)            # e^{2 lam} - 1
    e2 = np.expm1(4 * ell)            # e^{4 lam} - 1
    x = np.exp(2 * ell)
    ab = a * b
    bracket = (2 * cc * d / (x + 1)
               + 4 * (a * a * d + b * b * cc) / e2
               + 8 * ab * ab / (e1 * e2)
               + ab
               + (4 * ab - ab * ab) / e1
               - 2 * ab * ab * x / (e1 * e1))
    return float(4 * e1 * e1 / (e1 + 2 * ab) ** 3 * bracket)


def a1_coefficient(a: float, b: float, cc: float, d: float) -> float:
    """Slope of sigma2 at 0+ for the i.i.d. RCM:
    2(a^2 d + b^2 cc)/(a^3 b^3) - 5/(ab) + 1/(ab)^2; zero iff deterministic."""
    _check_rcm_moments(a, b, cc, d)
    ab = a * b
    return 2.0 * (a * a * d + b * b * cc) / ab**3 - 5.0 / ab + 1.0 / ab**2


def uniform_conductance_moments(x: float) -> tuple[float, float, float, float]:
    """Exact (E[c], E[1/c], E[c^2], E[1/c^2]) for c uniform on [1, x]."""
    dist = ScalarDist.uniform(1.0, x)
    return (dist.moment(1), dist.moment(-1), dist.moment(2), dist.moment(-2))


def a1_uniform(x: float) -> float:
    """sigma2 slope at 0+ for conductances uniform on [1, x], x > 1."""
    return a1_coefficient(*uniform_conductance_moments(x))


# ---------------------------------------------------------------------------
# i.i.d. jump-probability diffusivity
# ---------------------------------------------------------------------------

def _iid_shift_cov(x: float, beta: float) -> float:
    """sum_{n >= 1} Cov(U, theta^n U) for i.i.d. jump ratios, with
    x = E[rho] e^{-2 lam} and beta = E[rho^2]/E[rho]^2.

    The shifted products overlap in three regimes, each a geometric series;
    together they sum to x^3 (beta - 1) / ((1 - x)^3 (1 - beta x^2)), which
    needs x < 1 and beta x^2 < 1 and is exactly 0 when beta = 1.
    """
    return x**3 * (beta - 1.0) / ((1.0 - x) ** 3 * (1.0 - beta * x * x))


def sigma2_iid_omega(lam: float, m1: float, m2: float) -> DiffusivityBreakdown:
    """Diffusion coefficient for i.i.d. jump ratios with E[rho] = m1,
    E[rho^2] = m2, valid in the regime m1 e^{-2 lam} < 1 and
    m2 e^{-4 lam} < 1.

    U (sites <= 0) and V (sites >= 1) are independent under the i.i.d. law,
    so mixed moments factor; the covariance series over shifted copies of U
    is summed in closed form (_iid_shift_cov).
    """
    if not (m1 > 0 and m2 > 0):
        raise ValueError("moments must be positive")
    if m2 < m1 * m1 * (1.0 - _MOMENT_SLACK):
        raise ValueError("inconsistent moments: E[rho^2] < E[rho]^2")
    q = math.exp(-2.0 * lam)
    if m1 * q >= 1.0 or m2 * q * q >= 1.0:
        raise ValueError(
            f"diverged: need E[rho] e^(-2 lam) < 1 and E[rho^2] e^(-4 lam) < 1 "
            f"(got {m1 * q:.6g}, {m2 * q * q:.6g})")
    e_u = m1 * q / (1.0 - m1 * q)
    e_u2 = (m2 * q * q / (1.0 - m2 * q * q)) * ((1.0 + m1 * q) / (1.0 - m1 * q))
    e_vu = e_u * e_u          # independence of U and V
    e_vu2 = e_u * e_u2
    denom = (1.0 + 2.0 * e_u) ** 3
    sigma1 = 4.0 * (e_u2 + e_u + 2.0 * e_vu2 + 2.0 * e_vu) / denom
    cov = _iid_shift_cov(m1 * q, m2 / (m1 * m1))
    var_u = e_u2 - e_u * e_u
    v_sigma2 = 4.0 * (var_u + 2.0 * cov) / denom
    return DiffusivityBreakdown(sigma1 + v_sigma2, sigma1, v_sigma2,
                                e_u, e_u2, e_vu, e_vu2)


# ---------------------------------------------------------------------------
# CLT condition check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CltCheck:
    """Outcome of the recentered-CLT sufficient-condition check."""

    passed: bool
    failed_condition: str | None
    details: dict


def check_clt_condition(model, lam: float, eps: float) -> CltCheck:
    """Sufficient conditions for the annealed CLT with some moment slack eps.

    i.i.d. jump probabilities: requires E[rho^(2+eps)] < e^(2 lam (2+eps)),
    which dominates the whole chain of product-moment conditions.  i.i.d.
    conductances: requires finite E[c^(2+eps)], E[c^-(2+eps)] and lam != 0.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if isinstance(model, IIDOmega):
        m = model.rho.moment(2.0 + eps)
        bound = math.exp(2.0 * lam * (2.0 + eps))
        ok = m < bound
        return CltCheck(ok, None if ok else "E[rho^(2+eps)] < e^(2 lam (2+eps))",
                        {"moment": m, "bound": bound, "lam": lam, "eps": eps})
    if isinstance(model, IIDConductance):
        mp = model.c.moment(2.0 + eps)
        mm = model.c.moment(-(2.0 + eps))
        finite = math.isfinite(mp) and math.isfinite(mm)
        if not finite:
            return CltCheck(False, "finite E[c^(2+eps)] and E[c^-(2+eps)]",
                            {"upper": mp, "lower": mm})
        ok = lam != 0
        return CltCheck(ok, None if ok else "lam != 0 (ballistic regime)",
                        {"upper": mp, "lower": mm, "lam": lam, "eps": eps})
    raise ValueError(f"CLT check supports IIDOmega and IIDConductance, "
                     f"not {type(model).__name__}")
