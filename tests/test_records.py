"""The contract of the package's frozen records: repr text, equality and hash
within one class only, refusal of assignment, LatticePoint's (x, y) order,
copies and pickles, the constructors' error texts, which embed reprs, and the
constructors built from ``__slots__``."""

import ast
import copy
import inspect
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

import cleantri
from cleantri.arith import Factorization, InvariantViolation, _Record, factorize
from cleantri.counting import OrbitDecomposition, TCountReport
from cleantri.lattice import (
    AffineUnimodularMap,
    BaseForm,
    LatticePoint,
    LatticeTriangle,
    PickCounts,
    ScottResult,
    ScottScanReport,
)
from cleantri.meanvalue import ConstantEstimate, GrosswaldReport, MeanValueReport

P = LatticePoint
TRI = LatticeTriangle(P(0, 0), P(1, 0), P(2, 3))
TRI_REPR = (
    "LatticeTriangle(v0=LatticePoint(x=0, y=0), v1=LatticePoint(x=1, y=0), "
    "v2=LatticePoint(x=2, y=3))"
)
EST = ConstantEstimate(0.5, 10, 1e-3)
EST_REPR = "ConstantEstimate(value=0.5, prime_bound=10, tail_bound=0.001)"

# (class, field values, repr); every class of the package appears once
RECORDS = [
    (Factorization, (12, ((2, 2), (3, 1))), "Factorization(n=12, factors=((2, 2), (3, 1)))"),
    (LatticePoint, (1, -2), "LatticePoint(x=1, y=-2)"),
    (LatticeTriangle, (P(0, 0), P(1, 0), P(2, 3)), TRI_REPR),
    (AffineUnimodularMap, (0, 1, 1, 0, P(2, -3)),
     "AffineUnimodularMap(a=0, b=1, c=1, d=0, t=LatticePoint(x=2, y=-3))"),
    (BaseForm, (3, 0, 3), "BaseForm(b=3, m=0, h=3)"),
    (PickCounts, (1, 9, 9), "PickCounts(interior=1, boundary=9, twice_area=9)"),
    (ScottResult, (True, True, True, 1, 9),
     "ScottResult(applicable=True, holds=True, equality=True, interior=1, boundary=9)"),
    (ScottScanReport, (3, 10, (), (TRI,), ((3, 0, 3),)),
     f"ScottScanReport(grid_bound=3, checked=10, violations=(), equality_cases=({TRI_REPR},), "
     "equality_base_forms=((3, 0, 3),))"),
    (OrbitDecomposition, (7, ((1,), (2, 3))), "OrbitDecomposition(n=7, orbits=((1,), (2, 3)))"),
    (TCountReport, (7, 1, 1, 1, (6, 0, 0, 0, 0, 0)),
     "TCountReport(n=7, t_closed=1, t_burnside=1, t_geometric=1, fix_counts=(6, 0, 0, 0, 0, 0))"),
    (ConstantEstimate, (0.5, 10, 1e-3), EST_REPR),
    (MeanValueReport, (10, 1, 2, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, EST, EST, EST),
     "MeanValueReport(x=10, sum_imph=1, sum_t=2, ratio_imph=0.1, ratio_t=0.2, limit_imph=0.3, "
     f"limit_t=0.4, deviation_imph=0.5, deviation_t=0.6, product={EST_REPR}, "
     f"feller_tornier={EST_REPR}, feller_tornier_zeta={EST_REPR})"),
    (GrosswaldReport, (10, 20, 1.5), "GrosswaldReport(x=10, total=20, ratio_to_xlog2x=1.5)"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _field_names(text):
    """The field names in a record's repr, in order, outside nested records."""
    inner = text[text.index("(") + 1 : -1]
    names, depth = [], 0
    for part in inner.split(", "):
        if depth == 0:
            names.append(part.split("=", 1)[0])
        depth += part.count("(") - part.count(")")
    return names


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_keywords_build_the_same_record(self, cls, values, text):
        names = _field_names(text)
        assert len(names) == len(values)
        assert cls(**dict(zip(names, values))) == cls(*values)

    def test_equal_and_hash_within_the_class(self, cls, values, text):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_never_equals_a_tuple_of_its_fields(self, cls, values, text):
        r = cls(*values)
        assert r != values and values != r and r != list(values)

    def test_assignment_refused(self, cls, values, text):
        r = cls(*values)
        for name in _field_names(text):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 0
        assert repr(r) == text

    def test_copy_and_pickle(self, cls, values, text):
        r = cls(*values)
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is cls and twin == r and repr(twin) == text


class TestFieldsDiffer:
    def test_unequal_when_one_field_differs(self):
        assert P(1, 2) != P(1, 3) and P(1, 2) != P(2, 2)
        assert BaseForm(3, 0, 3) != BaseForm(3, 1, 3)
        assert factorize(12) != factorize(18)
        assert EST != ConstantEstimate(0.5, 10, 1e-2)

    def test_records_of_two_classes_never_equal(self):
        assert GrosswaldReport(1, 2, 3) != BaseForm(1, 2, 3)
        assert ConstantEstimate(1.0, 2, 3.0) != GrosswaldReport(1.0, 2, 3.0)


class TestLatticePointOrder:
    def test_sorts_by_x_then_y(self):
        pts = [P(2, 0), P(1, 5), P(1, -1), P(-3, 9)]
        assert sorted(pts) == [P(-3, 9), P(1, -1), P(1, 5), P(2, 0)]
        assert min(pts) == P(-3, 9) and max(pts) == P(2, 0)

    def test_comparisons(self):
        assert P(1, 2) < P(1, 3) and P(1, 2) <= P(1, 2) and P(1, 2) > P(0, 9)
        assert not P(1, 2) >= P(1, 3) and P(1, 3) >= P(1, 3)

    def test_no_order_against_tuples(self):
        with pytest.raises(TypeError):
            P(1, 2) < (1, 3)


def test_map_translation_defaults_to_the_origin():
    L = AffineUnimodularMap(1, 0, 0, 1)
    assert L.t == P(0, 0) and L == AffineUnimodularMap(1, 0, 0, 1, P(0, 0))
    assert repr(L) == "AffineUnimodularMap(a=1, b=0, c=0, d=1, t=LatticePoint(x=0, y=0))"
    assert AffineUnimodularMap.identity() == L


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: BaseForm(0, 0, 3), "b and h must be positive: BaseForm(b=0, m=0, h=3)"),
        (lambda: BaseForm(1, 3, 3), "m must satisfy 0 <= m < h: BaseForm(b=1, m=3, h=3)"),
        (lambda: BaseForm(1, 2, 4),
         "base edge carries fewer lattice points than a leg: BaseForm(b=1, m=2, h=4)"),
        (lambda: PickCounts(1, 3, 4),
         "Pick identity violated: PickCounts(interior=1, boundary=3, twice_area=4)"),
        (lambda: AffineUnimodularMap(1, 1, 1, 1), "matrix determinant must be +-1, got 0"),
        (lambda: Factorization(0, ()), "n must be positive, got 0"),
        (lambda: Factorization(12, ((3, 1), (2, 2))), "primes must be strictly increasing"),
        (lambda: Factorization(4, ((2, 0),)), "exponents must be positive"),
        (lambda: Factorization(4, ((4, 1),)), "4 is not prime"),
        (lambda: Factorization(12, ((2, 1), (3, 1))), "factors multiply to 6, not 12"),
        (lambda: OrbitDecomposition(7, ((1,), (1,))), "orbits overlap"),
        (lambda: OrbitDecomposition(7, ((1, 2, 3, 4),)), "orbit size 4 does not divide 6"),
        (lambda: ConstantEstimate(1.0, 1, -1.0), "tail bound must be nonnegative"),
    ],
)
def test_constructor_value_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "fields,routes",
    [
        ((7, 1, 2, 1, (6, 0, 0, 0, 0, 0)), ("closed", "burnside")),
        ((7, 1, 1, 2, (6, 0, 0, 0, 0, 0)), ("closed", "geometric")),
        ((7, 1, 1, 1, (6, 1, 0, 0, 0, 0)), ("burnside", "fix-counts")),
    ],
)
def test_report_invariant_text(fields, routes):
    with pytest.raises(InvariantViolation) as info:
        TCountReport(*fields)
    n, c, b, g, fix = fields
    shown = f"TCountReport(n={n}, t_closed={c}, t_burnside={b}, t_geometric={g}, fix_counts={fix})"
    assert str(info.value) == f"{routes[0]}/{routes[1]} disagreement at n=7: {shown}"
    assert (info.value.n, info.value.routes) == (7, routes)


COLLINEAR = (
    "error: collinear vertices: (LatticePoint(x=0, y=0), LatticePoint(x=1, y=1), "
    "LatticePoint(x=2, y=2))\n"
)


@pytest.mark.parametrize(
    "argv,stderr",
    [
        (["reduce", "0", "0", "1", "1", "2", "2"], COLLINEAR),
        (["equiv", *"0 0 1 1 2 2 0 0 1 0 0 1".split()], COLLINEAR),
        (["scott", "0", "0", "1", "1", "2", "2"], COLLINEAR),
        (["equiv", *"0 0 2 0 0 2 0 0 1 0 0 1".split()],
         "error: equivalence test requires clean triangles: (LatticePoint(x=0, y=0), "
         "LatticePoint(x=2, y=0), LatticePoint(x=0, y=2))\n"),
    ],
)
def test_cli_error_lines_print_reprs(argv, stderr):
    r = subprocess.run(
        [sys.executable, "-m", "cleantri.cli", *argv], capture_output=True, text=True, timeout=60
    )
    assert (r.returncode, r.stdout, r.stderr) == (2, "", stderr)


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
class TestBuiltConstructor:
    """Each record's ``__init__`` is built from its ``__slots__``."""

    def test_signature_names_the_slots_in_order(self, cls, values, text):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(cls.__slots__) == _field_names(text)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)

    def test_one_argument_too_few_names_the_missing_field(self, cls, values, text):
        required = [p.name for p in inspect.signature(cls).parameters.values()
                    if p.default is p.empty]
        with pytest.raises(TypeError) as info:
            cls(*values[: len(required) - 1])
        assert str(info.value) == (f"{cls.__name__}.__init__() missing 1 required positional "
                                   f"argument: {required[-1]!r}")


def test_only_the_map_translation_has_a_default():
    defaults = {f"{cls.__name__}.{p.name}": p.default for cls, _, _ in RECORDS
                for p in inspect.signature(cls).parameters.values() if p.default is not p.empty}
    assert defaults == {"AffineUnimodularMap.t": P(0, 0)}


def test_checks_take_the_fields_in_slot_order():
    """The seven records that check their fields do so in ``_validate``, which
    the built constructor calls with the field values in slot order."""
    checked = (Factorization, OrbitDecomposition, TCountReport, AffineUnimodularMap, BaseForm,
               PickCounts, ConstantEstimate)
    hooks = {cls.__name__: list(inspect.signature(cls._validate).parameters)
             for cls, _, _ in RECORDS if hasattr(cls, "_validate")}
    assert hooks == {cls.__name__: ["self", *cls.__slots__] for cls in checked}


def test_no_record_writes_its_constructor():
    """RECORDS holds every ``_Record`` subclass; none of them defines
    ``__init__`` in its source, and only ``arith``, which builds the
    constructors, names ``_set``."""
    assert set(_Record.__subclasses__()) == {cls for cls, _, _ in RECORDS}
    src = pathlib.Path(cleantri.__file__).parent
    records, inits, setters = [], [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        setters += [path.stem] * bool(re.search(r"\b_set\b", text))
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ClassDef) and "_Record" in map(ast.unparse, node.bases):
                records.append(node.name)
                inits += [node.name for f in node.body
                          if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    assert sorted(records) == sorted(IDS) and inits == []
    assert setters == ["arith"]
