"""Verdicts for benchmark operations.

Every check yields two verdicts:

* ``passed`` applies the acceptance rule: a Monte Carlo result within 3
  standard errors of its reference, an exact or certified result within its
  stated bound, a series ``converged`` where its reference converges.  An
  operation whose checks do not all pass counts as failed.
* ``sane`` says the program gave no wrong answer beyond chance: a Monte
  Carlo result within 5 standard errors, bounds respected, no ``diverged``
  claim for a convergent series.  An ``inconclusive`` series is an explicit
  non-answer and stays sane.  A run is correct only if every check is sane.

At 3 standard errors about one estimate in 370 misses by chance, so a run
over many seeds will now and then count a failed operation that is not a
defect; at 5 standard errors a chance miss is about one in 1.7 million.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

PASS_Z = 3.0
SANE_Z = 5.0


@dataclass(frozen=True)
class Check:
    what: str
    passed: bool
    sane: bool
    detail: dict = field(default_factory=dict)

    def __post_init__(self):  # comparisons of NumPy scalars give np.bool_
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "sane", bool(self.sane))

    def to_json(self) -> dict:
        return asdict(self)


def z_check(what: str, mean: float, se: float, ref: float) -> Check:
    """Monte Carlo mean against a reference value."""
    if not (math.isfinite(mean) and math.isfinite(se)):
        return Check(what, False, False, {"mean": mean, "se": se, "ref": ref})
    diff = mean - ref
    z = diff / se if se > 0 else (0.0 if diff == 0 else math.copysign(math.inf, diff))
    return Check(what, abs(z) <= PASS_Z, abs(z) <= SANE_Z,
                 {"mean": mean, "se": se, "ref": ref, "z": z})


def at_most_check(what: str, mean: float, se: float, bound: float) -> Check:
    """Monte Carlo mean against a one-sided upper bound."""
    z = (mean - bound) / se if se > 0 else (0.0 if mean <= bound else math.inf)
    return Check(what, z <= PASS_Z, z <= SANE_Z,
                 {"mean": mean, "se": se, "upper_bound": bound, "z": z})


def at_least_check(what: str, mean: float, se: float, bound: float,
                   resolvable: bool = True) -> Check:
    """Monte Carlo mean against a one-sided lower bound.  Where the replica
    budget cannot resolve the quantity (resolvable=False) a miss still fails
    the operation but is not counted as a wrong answer."""
    z = (bound - mean) / se if se > 0 else (0.0 if mean >= bound else math.inf)
    sane = (math.isfinite(mean) and math.isfinite(se)
            and (z <= SANE_Z or not resolvable))
    return Check(what, z <= PASS_Z, sane,
                 {"mean": mean, "se": se, "lower_bound": bound, "z": z,
                  "resolvable": resolvable})


def close_check(what: str, value: float, ref: float, tol: float) -> Check:
    """Exact or certified value within its stated bound of a reference."""
    err = abs(value - ref)
    ok = math.isfinite(value) and err <= tol
    return Check(what, ok, ok, {"value": value, "ref": ref, "err": err,
                                "tol": tol})


def equal_check(what: str, got, expected) -> Check:
    ok = got == expected
    return Check(what, ok, ok, {"got": got, "expected": expected})


def zero_check(what: str, count: int) -> Check:
    """Excluded or aborted replicas: explicit, so failed but not wrong."""
    return Check(what, count == 0, True, {"count": count})


def status_check(what: str, status: str, expected: str = "converged") -> Check:
    """Series status where the reference says the series converges."""
    wrong = status != expected and status != "inconclusive"
    return Check(what, status == expected, not wrong,
                 {"status": status, "expected": expected})


def verdict(checks: list[Check], error: str | None) -> dict:
    """Operation verdict: failed if it raised or any check failed; wrong if
    it raised or any check is not sane."""
    return {"failed": error is not None or not all(c.passed for c in checks),
            "wrong": error is not None or not all(c.sane for c in checks),
            "error": error,
            "checks": [c.to_json() for c in checks]}
