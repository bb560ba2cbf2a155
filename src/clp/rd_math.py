"""Rate-distortion quantities for Bernoulli sources under Hamming distortion.

Everything here is closed-form scalar math: binary entropy, the
rate-distortion function h(p) - h(D), and the smallest mutual
information I(X;Y) achievable when X ~ Bernoulli(p), Y ~ Bernoulli(q)
and E[d(X,Y)] <= D.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import Infeasible

__all__ = [
    "SourceModel",
    "DistortionBudget",
    "binary_entropy",
    "rate_distortion",
    "lower_mutual_info",
    "lower_mutual_info_float",
    "optimal_reproduction_type",
    "target_reproduction_type",
]

_FEAS_EPS = 1e-12

RationalLike = Union[numbers.Real, str, tuple]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact fraction; the one place a float becomes one.

    Accepts a Fraction, an integer (numpy's too), a "n/d" string, an
    (n, d) pair, or a real number (numpy's too), which is read through
    the shortest repr of its float value, so 0.1 gives 1/10.  bool and
    anything else raise TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a probability")
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, numbers.Real):
        return Fraction(repr(float(x)))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, tuple) and len(x) == 2:
        return Fraction(x[0], x[1])
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class SourceModel:
    """Memoryless binary source: P(X=1) = p."""

    p: Fraction

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("p must lie in [0, 1]")

    @classmethod
    def of(cls, x: Union["SourceModel", RationalLike]) -> "SourceModel":
        """The one way to read p: a SourceModel comes back unchanged,
        anything else goes through as_fraction and the [0, 1] check."""
        return x if isinstance(x, cls) else cls(as_fraction(x))

    @property
    def value(self) -> float:
        return float(self.p)


@dataclass(frozen=True)
class DistortionBudget:
    """Per-symbol Hamming distortion budget D, kept as an exact rational."""

    d: Fraction

    def __post_init__(self):
        if not 0 <= self.d <= 1:
            raise ValueError("D must lie in [0, 1]")

    @classmethod
    def of(cls, x: Union["DistortionBudget", RationalLike]) -> "DistortionBudget":
        """The one way to read D: a DistortionBudget comes back
        unchanged, anything else goes through as_fraction and the
        [0, 1] check."""
        return x if isinstance(x, cls) else cls(as_fraction(x))

    @property
    def value(self) -> float:
        return float(self.d)

    @property
    def num(self) -> int:
        return self.d.numerator

    @property
    def den(self) -> int:
        return self.d.denominator


def binary_entropy(t: float) -> float:
    """h(t) in bits, with the 0 log 0 = 0 convention."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("entropy argument outside [0, 1]")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -(t * math.log2(t) + (1.0 - t) * math.log2(1.0 - t))


def _plogp(c: float) -> float:
    return c * math.log2(c) if c > 0.0 else 0.0


def rate_distortion(src, dist) -> float:
    """h(p) - h(D) when D < min(p, 1-p); zero once D reaches that point."""
    p = SourceModel.of(src).value
    d = DistortionBudget.of(dist).value
    if d >= min(p, 1.0 - p):
        return 0.0
    return binary_entropy(p) - binary_entropy(d)


def lower_mutual_info(q, src, dist) -> float:
    """Least I(X;Y) with X ~ Bern(p), Y ~ Bern(q), E[d_H] <= D.

    The checked front of lower_mutual_info_float: reads q, p and D like
    every public entry point, raises Infeasible when |p - q| > D (since
    E[d_H] >= |p - q|), and answers zero when independent marginals
    already meet the budget, both tests with 1e-12 of float slack.
    """
    qv = SourceModel.of(q).value
    p = SourceModel.of(src).value
    d = DistortionBudget.of(dist).value
    if abs(p - qv) > d + _FEAS_EPS:
        raise Infeasible(f"|p - q| = {abs(p - qv):.6g} exceeds D = {d:.6g}")
    if p + qv - 2.0 * p * qv <= d + _FEAS_EPS:
        return 0.0
    return lower_mutual_info_float(qv, p, d)


def lower_mutual_info_float(q: float, p: float, d: float) -> float:
    """The closed form of I_m(q, p, D) on plain floats, no validation.

    The joint has one free parameter a = P(X=1,Y=1); I is convex in a
    with its unconstrained minimum at independence, so the answer sits
    at a = max(pq, (p+q-D)/2) clamped to at most min(p, q).  Callers
    must have settled feasibility (|p - q| <= D) already; the coder
    calls this form directly when ranking many candidate types.
    """
    if p + q - 2.0 * p * q <= d:
        return 0.0
    a = max(p * q, (p + q - d) / 2.0)
    a = min(a, p, q)
    out = _plogp(a) + _plogp(p - a) + _plogp(q - a) + _plogp(1.0 - p - q + a)
    out -= _plogp(p) + _plogp(1.0 - p) + _plogp(q) + _plogp(1.0 - q)
    return max(out, 0.0)


def target_reproduction_type(src, dist) -> Fraction:
    """Exact reproduction type q = (p - D)/(1 - 2D), clamped to [0, 1].

    At D >= 1/2 the limit is taken, which collapses to 0, 1/2 or 1
    depending on which side of 1/2 p sits.
    """
    p = SourceModel.of(src).p
    d = DistortionBudget.of(dist).d
    half = Fraction(1, 2)
    if d >= half:
        if p > half:
            return Fraction(1)
        if p < half:
            return Fraction(0)
        return half
    return min(max((p - d) / (1 - 2 * d), Fraction(0)), Fraction(1))


def optimal_reproduction_type(src, dist) -> float:
    """target_reproduction_type as a float, for D < 1/2 only.

    The map (p - D)/(1 - 2D) degenerates at D = 1/2, so D >= 1/2 raises
    ValueError here instead of taking the limit.
    """
    db = DistortionBudget.of(dist)
    if db.d >= Fraction(1, 2):
        raise ValueError("requires 0 <= D < 1/2")
    return float(target_reproduction_type(src, db))
