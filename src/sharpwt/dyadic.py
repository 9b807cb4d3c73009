"""Dyadic cube algebra: the integer lattice of half-open dyadic cubes,
the 3^n coloring that makes tripled cubes nested-or-disjoint within each
color, and the companion-cube construction Q subset 3Q_k subset 5Q.

All geometry is exact: cube corners are Fractions, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DyadicCube:
    """Half-open dyadic cube prod_i [j_i 2^-k, (j_i+1) 2^-k), k = level."""

    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(int(j) for j in self.index))

    @property
    def dim(self) -> int:
        return len(self.index)

    @property
    def side(self) -> Fraction:
        return Fraction(1, 2**self.level) if self.level >= 0 else Fraction(2**-self.level)

    def center(self) -> tuple[Fraction, ...]:
        return tuple((Fraction(2 * j + 1, 2)) * self.side for j in self.index)


@dataclass(frozen=True)
class RealCube:
    """Axis-parallel half-open box given by center and side, exact endpoints."""

    center: tuple[Fraction, ...]
    side: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(Fraction(c) for c in self.center))
        object.__setattr__(self, "side", Fraction(self.side))
        if self.side <= 0:
            raise ValueError("side must be positive")

    def lower(self) -> tuple[Fraction, ...]:
        h = self.side / 2
        return tuple(c - h for c in self.center)

    def upper(self) -> tuple[Fraction, ...]:
        h = self.side / 2
        return tuple(c + h for c in self.center)

    def contains(self, other: "RealCube") -> bool:
        return all(a <= c for a, c in zip(self.lower(), other.lower())) and all(
            c <= b for c, b in zip(other.upper(), self.upper())
        )


def dilate(q: DyadicCube, r) -> RealCube:
    """rQ: the box with the same center and side r*l(Q)."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("dilation factor must be positive")
    return RealCube(q.center(), r * q.side)


def _interval_family(level: int, j: int) -> int:
    # scale-alternating affine coloring; 2^(level mod 2) is invertible mod 3,
    # so the three shifts j-1, j, j+1 always land in three distinct colors
    return (2 ** (level % 2)) * (j - 1) % 3


def family_index(q: DyadicCube) -> int:
    """Color of Q in the 3^n-family partition; base-3 digits are per-coordinate."""
    return sum(_interval_family(q.level, j) * 3**i for i, j in enumerate(q.index))


def companion(q: DyadicCube, k: int) -> DyadicCube:
    """The cube Q_k of Q's level in family k with Q subset 3Q_k subset 5Q."""
    n = q.dim
    if not 0 <= k < 3**n:
        raise ValueError(f"family index {k} out of range for dimension {n}")
    new_index = []
    for i, j in enumerate(q.index):
        digit = (k // 3**i) % 3
        for shift in (-1, 0, 1):
            if _interval_family(q.level, j + shift) == digit:
                new_index.append(j + shift)
                break
    return DyadicCube(q.level, tuple(new_index))
