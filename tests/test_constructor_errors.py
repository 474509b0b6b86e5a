"""Constructors and entry points reject malformed input with a clear message."""

import re

import numpy as np
import pytest

from finsym import ising
from finsym.anomaly import MinimalTFT
from finsym.complexes import (
    ChainComplex, SubcomplexMap, circle, disk, glue_complexes, interval, sphere,
)
from finsym.fusion import FusionRing
from finsym.groups import Character, FiniteAbelianGroup, FiniteGroup, cyclic_group
from finsym.intmatrix import IntMatrix
from finsym.pathintegral import PiFiniteTarget, em_partition, surface_gauge_count
from finsym.tqft2d import Bordism, StateSpace

Z2 = FiniteAbelianGroup([2])
Z3 = FiniteAbelianGroup([3])
Z4 = FiniteAbelianGroup([4])
POINT = ChainComplex((1,), ())
IDENTITY_RANK2 = ((1, 0), (0, 1))

CASES = [
    (lambda: IntMatrix([[1]], rows=2), "row count does not match"),
    (lambda: IntMatrix([[1, 2]], cols=3), "column count does not match"),
    (lambda: IntMatrix([[1.7, 2]]), "matrix entry 1.7 is not an integer"),
    (lambda: IntMatrix([["3", 2]]), "matrix entry '3' is not an integer"),
    (lambda: IntMatrix([], rows=-1, cols=2), "negative shape"),
    (lambda: IntMatrix([], rows=1, cols=2.5), "column count 2.5 is not an integer"),
    (lambda: ChainComplex.from_json('{"cells": [1, 1, 1], "boundaries": [[[0]], [[2.5]]]}'),
     "matrix entry 2.5 is not an integer"),
    (lambda: ChainComplex.from_json('{"cells": [1.0, 1], "boundaries": [[[0]]]}'),
     "row count 1.0 is not an integer"),
    (lambda: ChainComplex((1.9, 1), ([()],)), "cell count 1.9 is not an integer"),
    (lambda: ChainComplex((2, 1), ([[(0.5, 1)]],)), "boundary row 0.5 is not an integer"),
    (lambda: ChainComplex((2, 1), ([[(0, 1.0)]],)), "boundary coefficient 1.0 is not an integer"),
    (lambda: ChainComplex((), ()), "nonempty and nonnegative"),
    (lambda: ChainComplex((1, 1), ()), "one boundary matrix per dimension"),
    (lambda: SubcomplexMap(circle(), circle(), ((0,),)), "degree 1 map has wrong length"),
    (lambda: SubcomplexMap(circle(), disk()[0], ((0,), (0,), (0,))),
     "degree 2 map has wrong length"),
    (lambda: SubcomplexMap(circle(), circle(), ((0.7,), (0,))), "cell index 0.7 is not an integer"),
    (lambda: SubcomplexMap(circle(), circle(), ((1,), (0,))), "degree 0 map goes out of range"),
    (lambda: SubcomplexMap(interval(), interval(), ((1, 0), (0,))), "does not commute"),
    (lambda: SubcomplexMap(circle(), circle(), 5), "one sequence of cell indices per degree"),
    (lambda: SubcomplexMap(circle(), circle(), ((0,), 0)), "cell_maps must be one sequence"),
    (lambda: SubcomplexMap(circle(), circle(), ({0}, (0,))), "sequence of cell indices"),
    (lambda: glue_complexes(interval(), interval(), {0: [(0, 0)]}),
     "identifications must map b-cells to a-cells"),
    (lambda: glue_complexes(interval(), interval(), {0.5: {}}),
     "map b-cells to a-cells of the same degree"),
    (lambda: glue_complexes(interval(), interval(), {5: {}}),
     "identifications must map b-cells to a-cells of the same degree"),
    (lambda: SubcomplexMap._trusted(interval(), interval(), ((1, 0), (0,))),
     "inclusion does not commute with boundaries"),
    (lambda: FusionRing(("1", "a"), 0, (IDENTITY_RANK2,), (0, 1)), "rank^3"),
    (lambda: FusionRing(("1",), 0, (((-1,),),), (0,)), "nonnegative"),
    (lambda: FusionRing.from_json('{"labels": ["1", "a"], "unit": 0, "dual": [0, 1], '
                                  '"N": [[[1, 0], [0, 1]], [[0, 1], [1.5, 0]]]}'),
     "fusion multiplicity 1.5 is not an integer"),
    (lambda: FusionRing(("1", "a"), 0, (IDENTITY_RANK2, ((0, 1), (1, 0))), (0, 0)),
     "involution"),
    (lambda: FusionRing(("1", "a"), 0, (IDENTITY_RANK2, ((1, 0), (1, 0))), (0, 1)),
     "right unit law"),
    (lambda: FusionRing(("1", "a"), 5, (IDENTITY_RANK2, ((0, 1), (1, 0))), (0, 1)),
     "unit index 5 is out of range for 2 simples"),
    (lambda: FusionRing(("a", "1"), -1, (((0, 1), (1, 0)), IDENTITY_RANK2), (0, 1)),
     "unit index -1 is out of range for 2 simples"),
    (lambda: Bordism(sphere(2), (SubcomplexMap(circle(), circle(), ((0,), (0,))),), ()),
     "does not land in the bordism"),
    (lambda: Bordism(disk()[0], (SubcomplexMap(POINT, disk()[0], ((0,),)),), ()),
     "standard circles"),
    (lambda: StateSpace(Z2, -1), "circle count must be >= 0"),
    (lambda: StateSpace(Z2, 1.5), "circle count 1.5 is not an integer"),
    (lambda: PiFiniteTarget(Z2, 0), "target degree must be >= 1"),
    (lambda: PiFiniteTarget(Z2, 1.5), "target degree 1.5 is not an integer"),
    (lambda: em_partition(circle(), Z2, 0), "n must be >= 1"),
    (lambda: surface_gauge_count(cyclic_group(2), -1), "genus must be >= 0"),
    (lambda: ising.transfer_matrix(2, 0.0), "beta must be positive"),
    (lambda: ising.kw_dual_beta(-1.0), "beta must be positive"),
    (lambda: ising.IsingLattice(2.0, 2, 0.4), "lattice side 2.0 is not an integer"),
    (lambda: MinimalTFT(4.0, 1), "N 4.0 is not an integer"),
    (lambda: Character(Z2, (0, 0)), "one exponent per invariant factor"),
    (lambda: Character(Z4, (1.9,)), "character exponent 1.9 is not an integer"),
    (lambda: FiniteAbelianGroup([2.7, 4.2]), "invariant factor 2.7 is not an integer"),
    (lambda: FiniteGroup.from_json('{"order": 2, "cayley": [[0, 1], [1.9, 0]], "identity": 0}'),
     "Cayley entry 1.9 is not an integer"),
    (lambda: Character(Z2, (1,)).value((0, 1)), "is not in Z2"),
    (lambda: Character(Z2, (1,)) * Character(Z3, (1,)), "characters of different groups"),
    (lambda: cyclic_group(0), "cyclic order must be >= 1"),
]


@pytest.mark.parametrize("build, fragment", CASES, ids=[f for _, f in CASES])
def test_malformed_input_is_rejected(build, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        build()


def test_numpy_integers_and_bools_are_stored_as_exact_ints():
    m = IntMatrix(np.array([[3, -1], [0, 2]]), rows=np.int64(2), cols=np.int32(2))
    assert m == IntMatrix([[3, -1], [0, 2]])
    assert all(type(x) is int for x in (m.rows, m.cols, *m.data[0], *m.data[1]))
    assert IntMatrix([[True, False]]) == IntMatrix([[1, 0]])


def test_numpy_integers_and_bools_pass_every_constructor():
    one, two = np.int64(1), np.int32(2)
    group = FiniteGroup([[0, one], np.array([1, 0])], identity=np.int16(0))
    ring = FusionRing(("1", "a"), False, (((one, 0), (0, True)), ((0, 1), (1, 0))), (0, one))
    lattice, tft = ising.IsingLattice(two, True, 0.4), MinimalTFT(np.int64(4), True)
    values = [
        *FiniteAbelianGroup([two, np.int64(4)]).invariant_factors,
        *Character(Z4, (np.int8(3),)).exponents,
        *group.cayley[0], group.identity,
        *ring.n_tensor[0][0], *(x for term in ring.terms[0][0] for x in term),
        *ring.dual, ring.unit,
        *SubcomplexMap(circle(), circle(), ((np.int64(0),), (False,))).cell_maps[0],
        lattice.length, lattice.time_steps, tft.n, tft.p,
    ]
    assert all(type(x) is int for x in values), [type(x) for x in values]
    assert FiniteAbelianGroup([two, np.int64(4)]) == FiniteAbelianGroup([2, 4])
