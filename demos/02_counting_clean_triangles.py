"""Counting clean triangles of a given area three independent ways.

A clean triangle has no lattice points on its boundary besides the
vertices. Up to affine unimodular equivalence, the number T(n) of clean
triangles with twice-area n is computed by:

  1. a closed formula driven by the arithmetic function imph(n),
  2. Burnside's lemma over a six-element group of residue maps,
  3. direct geometric enumeration, one class key per triangle.
"""

from cleantri.arith import imph
from cleantri.counting import orbit_decomposition, t_burnside, t_closed, t_geometric


def main():
    print(" n  imph(n)  closed  burnside  geometric")
    for n in range(1, 32, 2):
        print(
            f"{n:2d}  {imph(n):7d}  {t_closed(n):6d}  {t_burnside(n):8d}"
            f"  {t_geometric(n):9d}"
        )
    print()

    n = 21
    dec = orbit_decomposition(n)
    print(f"orbits of the six-map action on IP({n}):")
    for orbit in dec.orbits:
        print(f"  {set(orbit)}  (size {len(orbit)})")
    print(f"T({n}) = number of orbits = {dec.count}")


if __name__ == "__main__":
    main()
