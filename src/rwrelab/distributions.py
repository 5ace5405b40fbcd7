"""Finitely parameterized positive distributions with exact moment queries.

Every closed form downstream (velocities, diffusivities, Taylor coefficients)
consumes exact moments E[X^p], so sampling and moments live on the same
object: finite-support kinds use weighted power sums, the uniform-interval
kind uses the analytic integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ScalarDist:
    """A strictly positive scalar distribution.

    kind is one of "constant", "two-point", "uniform", "empirical".
    Finite-support kinds carry (atoms, weights); "uniform" carries (lo, hi).
    """

    kind: str
    atoms: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0
    _cum: tuple = field(default=(), init=False, repr=False, compare=False)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "ScalarDist":
        if not value > 0:
            raise ValueError("support must be strictly positive")
        return ScalarDist("constant", atoms=(float(value),), weights=(1.0,))

    @staticmethod
    def two_point(a: float, b: float, p: float) -> "ScalarDist":
        """P(X=a) = p, P(X=b) = 1-p."""
        if not (a > 0 and b > 0):
            raise ValueError("support must be strictly positive")
        if not 0.0 < p < 1.0:
            raise ValueError("two-point probability must lie in (0,1)")
        return ScalarDist("two-point", atoms=(float(a), float(b)),
                          weights=(float(p), 1.0 - float(p)))

    @staticmethod
    def uniform(lo: float, hi: float) -> "ScalarDist":
        if not (lo > 0 and hi > lo):
            raise ValueError("uniform interval needs 0 < lo < hi")
        return ScalarDist("uniform", lo=float(lo), hi=float(hi))

    @staticmethod
    def empirical(values, probs) -> "ScalarDist":
        atoms = tuple(float(v) for v in values)
        weights = tuple(float(w) for w in probs)
        if len(atoms) != len(weights) or not atoms:
            raise ValueError("values and probs must be equal-length, nonempty")
        if any(v <= 0 for v in atoms):
            raise ValueError("support must be strictly positive")
        if any(w < 0 for w in weights):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(weights) - 1.0) > _WEIGHT_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        return ScalarDist("empirical", atoms=atoms, weights=weights)

    def __post_init__(self):
        if self.kind not in ("constant", "two-point", "uniform", "empirical"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind != "uniform":
            if any(v <= 0 for v in self.atoms):
                raise ValueError("support must be strictly positive")
            if abs(sum(self.weights) - 1.0) > _WEIGHT_TOL:
                raise ValueError("probabilities must sum to 1 within 1e-12")
            object.__setattr__(self, "_cum",
                               tuple(np.cumsum(self.weights).tolist()))

    # -- exact queries -------------------------------------------------------

    def moment(self, p: float) -> float:
        """Exact E[X^p] for any real p."""
        if p == 0:
            return 1.0
        if self.kind == "uniform":
            lo, hi = self.lo, self.hi
            if p == -1:
                return math.log(hi / lo) / (hi - lo)
            return (hi ** (p + 1) - lo ** (p + 1)) / ((p + 1) * (hi - lo))
        return float(sum(w * v**p for v, w in zip(self.atoms, self.weights)))

    def log_moment(self) -> float:
        """Exact E[log X]."""
        if self.kind == "uniform":
            lo, hi = self.lo, self.hi
            return (hi * (math.log(hi) - 1) - lo * (math.log(lo) - 1)) / (hi - lo)
        return float(sum(w * math.log(v) for v, w in zip(self.atoms, self.weights)))

    def support_bounds(self) -> tuple[float, float]:
        if self.kind == "uniform":
            return self.lo, self.hi
        return min(self.atoms), max(self.atoms)

    # -- sampling ------------------------------------------------------------

    def atom_index(self, u: np.ndarray) -> np.ndarray:
        """The index into atoms of the inverse-CDF sample of each uniform in
        (0,1] (vectorized); a "uniform" law has no atoms."""
        if self.kind == "uniform":
            raise ValueError("a uniform law has no atoms")
        if len(self.atoms) == 1:
            return np.zeros(np.shape(u), dtype=np.uint8)
        if len(self.atoms) == 2:
            # the comparison's bytes: np.where with scalar branches takes
            # NumPy's slow broadcast path
            return (u > self.weights[0]).view(np.uint8)
        idx = np.searchsorted(np.asarray(self._cum), u, side="left")
        return np.minimum(idx, len(self.atoms) - 1)

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in (0,1] to samples (inverse CDF, vectorized): a
        finite-support law's atoms[atom_index(u)]."""
        if self.kind == "uniform":
            return self.lo + (self.hi - self.lo) * u
        return np.asarray(self.atoms)[self.atom_index(u)]

    # -- CLI mini-grammar ----------------------------------------------------

    def spec_string(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.atoms[0]!r}"
        if self.kind == "two-point":
            return f"two-point:{self.atoms[0]!r},{self.atoms[1]!r}:{self.weights[0]!r}"
        if self.kind == "uniform":
            return f"uniform:{self.lo!r},{self.hi!r}"
        vals = ",".join(repr(v) for v in self.atoms)
        ps = ",".join(repr(w) for w in self.weights)
        return f"empirical:{vals}:{ps}"

    @staticmethod
    def from_spec(spec: str) -> "ScalarDist":
        """Parse 'constant:v', 'two-point:a,b:p', 'uniform:lo,hi',
        'empirical:v1,..,vk:p1,..,pk'."""
        parts = spec.strip().split(":")
        kind = parts[0]
        try:
            if kind == "constant" and len(parts) == 2:
                return ScalarDist.constant(float(parts[1]))
            if kind == "two-point" and len(parts) == 3:
                a, b = (float(x) for x in parts[1].split(","))
                return ScalarDist.two_point(a, b, float(parts[2]))
            if kind == "uniform" and len(parts) == 2:
                lo, hi = (float(x) for x in parts[1].split(","))
                return ScalarDist.uniform(lo, hi)
            if kind == "empirical" and len(parts) == 3:
                vals = [float(x) for x in parts[1].split(",")]
                ps = [float(x) for x in parts[2].split(",")]
                return ScalarDist.empirical(vals, ps)
        except ValueError as exc:
            raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc
        raise ValueError(f"bad distribution spec {spec!r}")
