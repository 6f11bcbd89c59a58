"""Triangular fuzzy numbers, alpha-cuts, and named fuzzy parameter vectors.

Everything here is immutable after construction, so one instance can be
shared by every problem, curve and check that refers to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class TriangularFuzzyNumber:
    """Triangular fuzzy number given by its support ends and membership-1 vertex.

    The alpha-cut endpoints are the linear interpolants

        b1(a) = left + a * (peak - left)      (non-decreasing in a)
        b2(a) = right - a * (right - peak)    (non-increasing in a)

    so b1(0) = left, b2(0) = right and b1(1) = b2(1) = peak.  A zero-width
    triangle (left == peak == right) models a crisp parameter.
    """

    left: float
    peak: float
    right: float

    def __post_init__(self):
        if not (self.left <= self.peak <= self.right):
            raise ValueError(
                f"invalid triangle: need left <= peak <= right, got "
                f"({self.left}, {self.peak}, {self.right})"
            )
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise ValueError(f"invalid triangle: ends must be finite, got ({self.left}, {self.peak}, {self.right})")

    def lower(self, alpha: float) -> float:
        """b1(alpha); exact peak at alpha == 1, exact left at alpha == 0."""
        _check_alpha(alpha)
        if alpha == 1.0:
            return self.peak
        # min() guards against rounding pushing the interpolant past the peak
        return min(self.left + alpha * (self.peak - self.left), self.peak)

    def upper(self, alpha: float) -> float:
        """b2(alpha); exact peak at alpha == 1, exact right at alpha == 0."""
        _check_alpha(alpha)
        if alpha == 1.0:
            return self.peak
        return max(self.right - alpha * (self.right - self.peak), self.peak)


@dataclass(frozen=True)
class AlphaCut:
    """Closed interval [lo, hi] cut from a fuzzy number at membership level alpha."""

    lo: float
    hi: float
    alpha: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"invalid cut: lo {self.lo} > hi {self.hi}")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class FuzzyVector:
    """Ordered, uniquely named collection of triangular fuzzy numbers.

    Houses both the equation parameters and any fuzzified boundary constants;
    the product cut box at a level is produced by :func:`cut_box`.
    """

    components: tuple[tuple[str, TriangularFuzzyNumber], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("fuzzy vector must have at least one component")
        names = [name for name, _ in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names in {names}")

    @classmethod
    def from_mapping(cls, items: Mapping[str, TriangularFuzzyNumber]) -> FuzzyVector:
        return cls(tuple(items.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.components)

    @property
    def numbers(self) -> tuple[TriangularFuzzyNumber, ...]:
        return tuple(num for _, num in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, name: str) -> TriangularFuzzyNumber:
        for key, num in self.components:
            if key == name:
                return num
        raise KeyError(name)


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def alpha_cut(f: TriangularFuzzyNumber, alpha: float) -> AlphaCut:
    """Cut ``f`` at membership level ``alpha``, returning [b1(alpha), b2(alpha)]."""
    return AlphaCut(f.lower(alpha), f.upper(alpha), alpha)


def cut_box(v: FuzzyVector | Iterable[TriangularFuzzyNumber], alpha: float) -> list[AlphaCut]:
    """Component-wise alpha-cuts of a fuzzy vector, order preserved.

    The result is the coordinate description of the product box the envelope
    operations minimise/maximise over.
    """
    numbers = v.numbers if isinstance(v, FuzzyVector) else tuple(v)
    return [alpha_cut(f, alpha) for f in numbers]


def is_crisp(f: TriangularFuzzyNumber) -> bool:
    """True iff the triangle has zero width (machine equality, no tolerance)."""
    return f.left == f.peak == f.right
