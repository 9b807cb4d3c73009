"""Geometry checks for the 3^n-family partition and companions.  The
exhaustive 1-D checks of Lemmas 3.1 and 3.2 are criterion 1 of
tests/test_acceptance.py."""

from fractions import Fraction

import numpy as np
import pytest

from sharpwt.dyadic import DyadicCube, RealCube, companion, dilate, family_index


def triple_endpoints(c: DyadicCube):
    side = c.side
    j = c.index[0]
    return (j - 1) * side, (j + 2) * side


def nested_or_disjoint(a, b):
    (a1, b1), (a2, b2) = a, b
    if b1 <= a2 or b2 <= a1:
        return True
    return (a2 <= a1 and b1 <= b2) or (a1 <= a2 and b2 <= b1)


def test_family_examples():
    assert family_index(DyadicCube(0, (0,))) == 2      # [0,1)
    assert family_index(DyadicCube(-1, (0,))) == 1     # [0,2)
    assert family_index(DyadicCube(0, (3,))) == 2      # [3,4)
    assert family_index(DyadicCube(0, (0, 0))) == 8    # [0,1)^2


def test_triples_of_different_families_may_overlap():
    a = DyadicCube(0, (3,))
    b = DyadicCube(-1, (0,))
    assert family_index(a) != family_index(b)
    assert not nested_or_disjoint(triple_endpoints(a), triple_endpoints(b))


def cubes_2d(level_range=(-3, 3), window=(-2, 2)):
    out = []
    for k in range(level_range[0], level_range[1] + 1):
        side = Fraction(2) ** -k
        j_lo = int(np.floor(window[0] / float(side)))
        j_hi = int(np.ceil(window[1] / float(side)))
        for j1 in range(j_lo, j_hi):
            for j2 in range(j_lo, j_hi):
                out.append(DyadicCube(k, (j1, j2)))
    return out


def test_lemma_31_2d_spot():
    groups: dict[int, list] = {}
    for c in cubes_2d():
        groups.setdefault(family_index(c), []).append(c)
    assert set(groups) == set(range(9))
    violations = 0
    for fam, cubes in groups.items():
        boxes = [dilate(c, 3) for c in cubes]
        # exact in floats: every endpoint is an integer multiple of 2^-4
        lo = np.array([[float(v) for v in b.lower()] for b in boxes])
        hi = np.array([[float(v) for v in b.upper()] for b in boxes])
        disj = np.any(
            (hi[:, None, :] <= lo[None, :, :]) | (hi[None, :, :] <= lo[:, None, :]), axis=2
        )
        a_in_b = np.all((lo[None, :, :] <= lo[:, None, :]) & (hi[:, None, :] <= hi[None, :, :]), axis=2)
        violations += int(np.sum(~(disj | a_in_b | a_in_b.T)))
    assert violations == 0


def test_lemma_32_2d_spot():
    for c in cubes_2d((-2, 2), (-1, 1)):
        five = dilate(c, 5)
        me = dilate(c, 1)
        for fam in range(9):
            comp = companion(c, fam)
            assert family_index(comp) == fam
            tripled = dilate(comp, 3)
            assert tripled.contains(me) and five.contains(tripled)


def test_same_level_same_family_triples_disjoint():
    for k in (-2, 0, 3):
        for j1 in range(-8, 8):
            for j2 in range(-8, 8):
                if j1 == j2:
                    continue
                a, b = DyadicCube(k, (j1,)), DyadicCube(k, (j2,))
                if family_index(a) == family_index(b):
                    assert nested_or_disjoint(triple_endpoints(a), triple_endpoints(b))
                    # same level + nested means equal, so they must be disjoint
                    lo1, hi1 = triple_endpoints(a)
                    lo2, hi2 = triple_endpoints(b)
                    assert hi1 <= lo2 or hi2 <= lo1


def test_dilate_examples():
    unit = DyadicCube(0, (0,))
    assert dilate(unit, 3) == RealCube((Fraction(1, 2),), 3)
    assert dilate(unit, 3).lower() == (Fraction(-1),)
    assert dilate(unit, 3).upper() == (Fraction(2),)
    assert dilate(unit, 1).lower() == (Fraction(0),)
    wide = DyadicCube(-1, (1,))  # [2, 4): center 3, side 2
    assert dilate(wide, 5).lower() == (Fraction(-2),)
    assert dilate(wide, 5).upper() == (Fraction(8),)


def test_companion_rejects_bad_family():
    with pytest.raises(ValueError):
        companion(DyadicCube(0, (0,)), 3)
    with pytest.raises(ValueError):
        companion(DyadicCube(0, (0, 0)), 9)
