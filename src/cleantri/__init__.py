"""Counting clean lattice triangles up to affine unimodular equivalence.

Submodules:
    arith     -- factorization, imph(n), quadratic-congruence root counts
    lattice   -- exact triangle geometry, Pick/Scott, base-form reduction
    counting  -- the six-map Burnside action on IP(n) and T(n)
    meanvalue -- summatory functions, Euler products, Feller-Tornier constant
    cli       -- command-line front end (``cleantri`` entry point)
"""

from . import arith, counting, lattice, meanvalue
from .arith import (
    Factorization,
    InvariantViolation,
    extended_gcd,
    factorize,
    imph,
    imph_bruteforce,
    imph_sieve,
    mod_inverse,
)
from .counting import (
    canonical_m,
    fix_count_closed,
    map_g,
    orbit_decomposition,
    t_burnside,
    t_closed,
    t_geometric,
)
from .lattice import (
    AffineUnimodularMap,
    BaseForm,
    LatticePoint,
    LatticeTriangle,
    apply_map,
    boundary_count,
    enumerate_clean,
    equivalent_clean,
    interior_count_enum,
    is_clean,
    pick_counts,
    reduce_to_base_form,
    scott_check,
    scott_exhaustive,
    twice_area,
)
from .meanvalue import (
    euler_product_odd,
    feller_tornier,
    mean_value_report,
    moebius_sum_odd,
    partial_sum_T,
    partial_sum_imph,
)

__version__ = "0.1.0"
