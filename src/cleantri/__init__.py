"""Counting clean lattice triangles up to affine unimodular equivalence.

Submodules:
    arith     -- factorization, imph(n), quadratic-congruence root counts
    sieve     -- the factor sieve walk behind the imph and T tables and ranges
    lattice   -- exact triangle geometry, Pick/Scott, base-form reduction
    counting  -- the six-map Burnside action on IP(n) and T(n)
    meanvalue -- summatory functions, Euler products, Feller-Tornier constant
    cli       -- command-line front end (``cleantri`` entry point)

Submodules load on first use: ``import cleantri`` runs none of them, and the
first ``cleantri.imph`` (or ``from cleantri import imph``) imports ``arith``
alone.  Each public name below is looked up once in its submodule (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = ("arith", "counting", "lattice", "meanvalue")

# each re-exported name, by the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Factorization", "InvariantViolation", "extended_gcd", "factorize", "imph",
         "imph_bruteforce", "imph_sieve", "mod_inverse"),
        "arith",
    ),
    **dict.fromkeys(
        ("canonical_m", "fix_count_closed", "map_g", "orbit_decomposition", "t_burnside",
         "t_closed", "t_geometric"),
        "counting",
    ),
    **dict.fromkeys(
        ("AffineUnimodularMap", "BaseForm", "LatticePoint", "LatticeTriangle", "apply_map",
         "boundary_count", "enumerate_clean", "equivalent_clean", "interior_count_enum",
         "is_clean", "pick_counts", "reduce_to_base_form", "scott_check", "scott_exhaustive",
         "twice_area"),
        "lattice",
    ),
    **dict.fromkeys(
        ("euler_product_odd", "feller_tornier", "mean_value_report", "moebius_sum_odd",
         "partial_sum_T", "partial_sum_imph"),
        "meanvalue",
    ),
}

__all__ = [*_SUBMODULES, *_EXPORTS, "__version__"]


def __getattr__(name: str):
    """A submodule, imported now, or a name it defines, kept in this module's
    globals so that the next lookup does not come here."""
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)  # the import binds it here
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
