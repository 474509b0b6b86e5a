"""The value-type contract of the frozen dataclasses: fields cannot be
assigned, equal values hash equal, quadratic forms compare by identity,
and derived state stays out of equality."""

from dataclasses import fields
from fractions import Fraction

import pytest

from finsym.complexes import SubcomplexMap, circle, preset
from finsym.fusion import FusionRing
from finsym.groups import Character, FiniteAbelianGroup, FiniteGroup
from finsym.intmatrix import IntMatrix
from finsym.quadratic import QuadraticForm
from finsym.tqft2d import StateSpace

Z2 = [[0, 1], [1, 0]]

# (factory of a fresh value, the fields equality compares; None: identity)
VALUES = {
    "IntMatrix": (lambda: IntMatrix([[1, 2], [3, 4]]), ["data", "rows", "cols"]),
    "ChainComplex": (lambda: preset("rp", 3), ["cells", "boundaries"]),
    "SubcomplexMap": (lambda: SubcomplexMap(circle(), circle(), ((0,), (0,))),
                      ["source", "target", "cell_maps"]),
    "FiniteAbelianGroup": (lambda: FiniteAbelianGroup([2, 4]), ["invariant_factors"]),
    "Character": (lambda: Character(FiniteAbelianGroup([2, 4]), (3, 7)),
                  ["group", "exponents"]),
    "FiniteGroup": (lambda: FiniteGroup(Z2), ["cayley", "identity"]),
    "FusionRing": (lambda: FusionRing(["1", "g"], 0, [[[1, 0], [0, 1]], Z2], [0, 1]),
                   ["labels", "unit", "terms", "dual"]),
    "QuadraticForm": (lambda: QuadraticForm(FiniteAbelianGroup([2]), [Fraction(1, 4)]), None),
    "StateSpace": (lambda: StateSpace(FiniteAbelianGroup([2]), 2), ["group", "circles"]),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    factory, compared = VALUES[name]
    a, b = factory(), factory()
    assert a is not b and type(a).__name__ == name
    for f in fields(a):
        with pytest.raises(AttributeError):
            setattr(a, f.name, getattr(b, f.name))
    if compared is None:
        assert a == a and a != b
        return
    assert [f.name for f in fields(a) if f.compare] == compared
    assert a == b and hash(a) == hash(b)
    if name == "ChainComplex":  # the unit-pivot reduction is derived state
        a.boundary_factors(2)
        assert a._reduction is not None and b._reduction is None
        assert a == b and hash(a) == hash(b)
    if name == "StateSpace":  # the basis and its index are listed on first use
        assert a.index(a.basis[3]) == 3 and "basis" not in vars(b)
        assert a == b and hash(a) == hash(b)
