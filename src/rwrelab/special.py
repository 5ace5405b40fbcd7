"""The two special functions the package needs: the Hurwitz zeta function
and the standard normal CDF.

Both are the Cephes algorithms (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989) that SciPy ships as `scipy.special.zeta` and
`scipy.special.ndtr`, with the same order of IEEE operations.  Every power
and exponential is the C library's `pow`/`exp`, taken one element at a time
through `math.pow`/`math.exp`; NumPy only adds, multiplies, divides,
compares and masks.  NumPy's own `power` and `exp` are not used, since their
vectorized loops may differ from the C library in the last bit.  So the
values equal SciPy's bit for bit, and SciPy stays off the import path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MACHEP = 1.11022302462515654042e-16     # 2^-53

# Euler-Maclaurin coefficients (2k)!/B_2k of the zeta tail
_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
       -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
       1.1646782814350067249e14, -4.5979787224074726105e15,
       1.8152105401943546773e17, -7.1661652561756670113e18)
# q beyond which zeta(s, q) is its two-term asymptotic expansion
_Q_ASYMPTOTIC = 1e8
# terms of the direct sum before the tail: past q + 9 and at least 9 of them
_DIRECT = 9


def _pow_or_inf(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except OverflowError:
        return math.inf


def _pow(base: np.ndarray, expo) -> np.ndarray:
    """C pow elementwise over a 1-d base and a scalar or 1-d exponent; a
    scalar exponent takes each distinct base's power once."""
    if np.ndim(expo) == 0:
        order = base.argsort(kind="stable")   # quick on sorted runs
        sorted_base = base[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_base[1:] != sorted_base[:-1])))
        powers = _pow(sorted_base[starts], np.full(starts.size, float(expo)))
        out = np.empty(base.size)
        out[order] = np.repeat(powers, np.diff(starts, append=base.size))
        return out
    args = (base.tolist(), expo.tolist())
    try:
        return np.fromiter(map(math.pow, *args), float, base.size)
    except OverflowError:
        return np.fromiter(map(_pow_or_inf, *args), float, base.size)


def _zeta_scalar(x: float, q: float) -> float:
    """zeta(x, q) for x > 1, q > 0: Cephes' direct sum of at least 9 terms
    up to q + 9, then the Euler-Maclaurin tail, operation for operation."""
    if q > _Q_ASYMPTOTIC:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * math.pow(q, 1.0 - x)
    s, a, i, b = _pow_or_inf(q, -x), q, 0, 0.0
    while i < _DIRECT or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if s and abs(b / s) < _MACHEP:     # 0/0 is NaN in C: go on
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for c in _EM:
        a *= x + k
        b /= w
        t = a * b / c
        s = s + t
        if s and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _accumulate(rows: np.ndarray) -> np.ndarray:
    """Running sums down the rows, in place, one row add at a time."""
    for i in range(1, len(rows)):
        rows[i] += rows[i - 1]
    return rows


def _zeta_array(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """_zeta_scalar over 1-d arrays of equal size.  Each sum is kept as its
    running sums, added in the scalar order, and read at the term where the
    scalar loop stops."""
    out = np.empty(q.size)
    big = q > _Q_ASYMPTOTIC
    if big.any():
        xb, qb = x[big], q[big]
        out[big] = (1.0 / (xb - 1.0) + 1.0 / (2.0 * qb)) * _pow(qb, 1.0 - xb)
    small = ~big
    if not small.any():
        return out
    x, q = x[small], q[small]
    one_x = bool((x == x[0]).all())
    if one_x:
        x = float(x[0])           # one pow per distinct base
    # the bases q, q + 1, ..., q + 10 of the direct sum, added one at a
    # time; the last is used only where the one before is still at most 9
    # (q below about 1e-15)
    a = _accumulate(np.vstack((q, np.ones((_DIRECT + 1, q.size)))))
    extra = a[_DIRECT] <= 9.0
    if not extra.any():
        a = a[:-1]
    b = _pow(a.ravel(), -x if one_x else -np.tile(x, a.shape[0]))
    b = b.reshape(a.shape)
    s = _accumulate(b.copy())
    hit = np.abs(b / s) < _MACHEP
    hit[0] = False
    hit[_DIRECT + 1:] &= extra
    cols = np.arange(q.size)
    first = hit.argmax(axis=0)
    done = hit[first, cols]
    last = np.where(extra, a.shape[0] - 1, _DIRECT)
    # the Euler-Maclaurin tail, after the last term w^-x of the direct sum
    stop = np.where(done, first, last)
    s = s[stop, cols]
    cols = np.flatnonzero(~done)
    if cols.size:
        w, b = a[last[cols], cols], b[last[cols], cols]
        if not one_x:
            x = x[cols]
        terms = np.empty((len(_EM) + 1, cols.size))
        terms[0] = s[cols] + b * w / (x - 1.0)
        terms[0] -= 0.5 * b
        fact, k = 1.0, 0.0
        for j, c in enumerate(_EM, 1):
            fact = fact * (x + k)
            b = b / w
            terms[j] = fact * b / c
            k += 1.0
            fact = fact * (x + k)
            b = b / w
            k += 1.0
        sums = _accumulate(terms.copy())
        hit = np.abs(terms[1:] / sums[1:]) < _MACHEP
        stop = np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, len(_EM))
        s[cols] = sums[stop, np.arange(cols.size)]
    out[small] = s
    return out


def hurwitz_zeta(s, q):
    """The Hurwitz zeta function zeta(s, q) = sum_{k >= 0} (k + q)^-s for
    real s > 1 and q > 0, elementwise over the broadcast of s and q: a
    float for two scalars, an array otherwise."""
    if not (isinstance(s, (int, float)) and isinstance(q, (int, float))):
        x, q = np.broadcast_arrays(np.asarray(s, dtype=float),
                                   np.asarray(q, dtype=float))
        if x.ndim:
            if not ((x > 1.0).all() and (q > 0.0).all()):
                raise ValueError("hurwitz_zeta needs s > 1 and q > 0")
            if not x.size:
                return np.empty(x.shape)
            with np.errstate(all="ignore"):   # 0/0 and overflow as in C
                return _zeta_array(x.ravel(), q.ravel()).reshape(x.shape)
        s, q = x[()], q[()]
    s, q = float(s), float(q)
    if not (s > 1.0 and q > 0.0):
        raise ValueError("hurwitz_zeta needs s > 1 and q > 0")
    return _zeta_scalar(s, q)


@functools.lru_cache(maxsize=64)
def zeta(s: float) -> float:
    """The Riemann zeta function zeta(s) = zeta(s, 1) for real s > 1,
    computed once per s."""
    return hurwitz_zeta(s, 1.0)


# rational approximations of erf on |x| <= 1 (T/U) and of erfc on
# 1 <= x < 8 (P/Q) and x >= 8 (R/S); the denominators are monic
_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
      2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
      4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
      7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
      3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
      5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
      1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2       # log(DBL_MAX)
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef, monic=False):
    """Horner's rule, with a leading coefficient 1 when monic."""
    y = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf_small(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U, True)


def ndtr(x):
    """The standard normal CDF Phi(x), elementwise: a float for a scalar,
    an array otherwise.  NaN gives NaN."""
    v = np.asarray(x, dtype=float)
    x = v.ravel() * _SQRT1_2
    z = np.abs(x)
    y = np.full(x.size, np.nan)
    near = z < _SQRT1_2                  # 0.5 + 0.5 erf(x)
    y[near] = 0.5 + 0.5 * _erf_small(x[near])
    mid = (z >= _SQRT1_2) & (z < 1.0)    # erfc(z) = 1 - erf(z)
    y[mid] = 0.5 * (1.0 - _erf_small(z[mid]))
    tail = z >= 1.0                      # erfc(z) = e^{-z^2} P(z) / Q(z)
    a = z[tail]
    with np.errstate(over="ignore", invalid="ignore"):
        e = -a * a
        p = np.where(a < 8.0, _polevl(a, _P), _polevl(a, _R))
        q = np.where(a < 8.0, _polevl(a, _Q, True), _polevl(a, _S, True))
        exp = np.fromiter(map(math.exp, e.tolist()), float, e.size)
        y[tail] = 0.5 * np.where(e < -_MAXLOG, 0.0, exp * p / q)
    far = ~near & (x > 0.0)
    y[far] = 1.0 - y[far]
    return float(y[0]) if v.ndim == 0 else y.reshape(v.shape)
