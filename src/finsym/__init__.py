"""finsym: exact desk-scale computations for finite-symmetry TFT.

Subpackages by theme:
  intmatrix    exact integer matrices, Smith normal form
  groups       finite abelian groups, characters, Cayley-table groups
  quadratic    quadratic refinements q: A -> Q/Z and their polarizations
  complexes    finite cell complexes, cohomology with finite coefficients
  pathintegral groupoid-cardinality partition functions for BG and B^nA
  tqft2d       the functorial 2d finite gauge theory (state spaces, bordisms)
  fusion       fusion rings, Tambara-Yamagami, obstruction tests
  anomaly      line lattices, minimal TFT anyons, parity anomalies, Gauss sums
  ising        exact square-torus Ising model and Kramers-Wannier duality
  cli          the ``finsym`` command-line tool

All algebraic quantities are exact (ints and fractions); floats appear only
in Ising weights and Perron-Frobenius dimensions (the float nearest an
exact integer enclosure).  The runtime is the standard library; numpy is
only imported by the dense Ising transfer-matrix oracle, which no
computation calls.  Everything is immutable after construction and safe
for concurrent use.
"""

__version__ = "0.1.0"
