"""The result records: their fields, values and immutability, and which
classes of the package are still dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import manin_toric
from manin_toric.bounds import SweepReport
from manin_toric.cones import PolyhedralCone, QuotientChar, RationalConeForm
from manin_toric.counting import CountReport, ZetaPartial
from manin_toric.fibration import (FibrationConstant, FibrationError,
                                   FibrationPicard, FibrationZeta, TorsorSpec)
from manin_toric.fourier import PoissonReport
from manin_toric.heights import AdelicOffset
from manin_toric.latticefan import Fan, PLFunction
from manin_toric.tauberian import (CompareReport, ContourReport,
                                   DirichletOracle, PoleData, ResidueReport,
                                   TauberianError)
from manin_toric.toric import (EulerProductSpec, LeadingConstant, PicardData,
                               TamagawaResult)


class Fresh:
    """A default that each record gets a new copy of."""

    def __init__(self, value):
        self.value = value


REQUIRED = object()

# (field, default) in constructor order, as the dataclasses declared them
FIELDS = {
    SweepReport: [("kind", REQUIRED), ("rows", Fresh([])),
                  ("sup_base", 0.0), ("sup_extended", 0.0), ("worst", None),
                  ("stable", False), ("passed", False)],
    PolyhedralCone: [("dim", REQUIRED), ("generators", REQUIRED),
                     ("lineality", ()), ("measure_basis", None)],
    RationalConeForm: [("dim", REQUIRED), ("terms", REQUIRED)],
    QuotientChar: [("form", REQUIRED), ("projection", REQUIRED),
                   ("m_basis", REQUIRED), ("w_basis", REQUIRED),
                   ("density", REQUIRED)],
    CountReport: [("fan_name", REQUIRED), ("lam", REQUIRED),
                  ("bounds", REQUIRED), ("counts", REQUIRED),
                  ("predicted", REQUIRED), ("ratios", REQUIRED),
                  ("constant", None), ("stats", Fresh({})), ("engine", "")],
    ZetaPartial: [("value", REQUIRED), ("B", REQUIRED),
                  ("n_points", REQUIRED), ("tail_estimate", REQUIRED)],
    TorsorSpec: [("twist", REQUIRED), ("section", "x0")],
    FibrationZeta: [("twist", REQUIRED), ("section", REQUIRED),
                    ("lam_fiber", REQUIRED), ("alpha_base", REQUIRED),
                    ("B", REQUIRED), ("value", REQUIRED),
                    ("n_points", REQUIRED), ("base_count", REQUIRED),
                    ("height_counts", REQUIRED), ("base_rows", REQUIRED),
                    ("tail_estimate", REQUIRED)],
    FibrationPicard: [("twist", REQUIRED), ("rank", REQUIRED),
                      ("m_basis", REQUIRED), ("quotient", REQUIRED),
                      ("fiber_plus_class", REQUIRED),
                      ("fiber_minus_class", REQUIRED),
                      ("base_class", REQUIRED),
                      ("anticanonical_class", REQUIRED),
                      ("effective_cone", REQUIRED), ("alpha", REQUIRED)],
    FibrationConstant: [("twist", REQUIRED), ("alpha", REQUIRED),
                        ("tau_fiber", REQUIRED), ("tau_base", REQUIRED),
                        ("theta", REQUIRED), ("lower", REQUIRED),
                        ("upper", REQUIRED), ("a", REQUIRED), ("b", REQUIRED),
                        ("picard", REQUIRED)],
    PoissonReport: [("fan_name", REQUIRED), ("lam", REQUIRED),
                    ("lhs", REQUIRED), ("rhs", REQUIRED),
                    ("rel_error", REQUIRED), ("imag_residual", REQUIRED),
                    ("tail_correction", REQUIRED), ("T", REQUIRED),
                    ("pmax", REQUIRED), ("B_grid", REQUIRED),
                    ("lhs_partials", REQUIRED), ("factors", ())],
    AdelicOffset: [("dim", REQUIRED), ("finite", ()), ("arch", ())],
    PoleData: [("abscissa", REQUIRED), ("order", REQUIRED),
               ("theta", REQUIRED), ("delta0", REQUIRED), ("kappa", 0.0)],
    DirichletOracle: [("name", REQUIRED), ("pole", REQUIRED),
                      ("_evaluate", REQUIRED), ("_coefficients", REQUIRED)],
    ContourReport: [("value_low", REQUIRED), ("value_high", REQUIRED),
                    ("a_low", REQUIRED), ("a_high", REQUIRED),
                    ("tail_low", REQUIRED), ("tail_high", REQUIRED)],
    ResidueReport: [("right", REQUIRED), ("left", REQUIRED),
                    ("circle", REQUIRED), ("shape", REQUIRED)],
    CompareReport: [("oracle_name", REQUIRED), ("Xs", REQUIRED),
                    ("counts", REQUIRED), ("predictions", REQUIRED),
                    ("residuals", REQUIRED), ("error_exponent", REQUIRED),
                    ("residual_coefficient", REQUIRED)],
    PicardData: [("fan", REQUIRED), ("rank", REQUIRED),
                 ("projection", REQUIRED), ("anticanonical", REQUIRED),
                 ("divisor_classes", REQUIRED), ("effective_cone", REQUIRED)],
    EulerProductSpec: [("fan", REQUIRED), ("rank", REQUIRED),
                       ("coefficients", REQUIRED),
                       ("tail_constant", REQUIRED)],
    TamagawaResult: [("value", REQUIRED), ("lower", REQUIRED),
                     ("upper", REQUIRED), ("pmax", REQUIRED),
                     ("tail_log_bound", REQUIRED), ("spec", REQUIRED)],
    LeadingConstant: [("fan", REQUIRED), ("alpha", REQUIRED),
                      ("tamagawa", REQUIRED), ("theta", REQUIRED),
                      ("lower", REQUIRED), ("upper", REQUIRED),
                      ("a", REQUIRED), ("b", REQUIRED)],
}

# values the two validating records accept; every other field takes a
# distinct placeholder
VALID = {TorsorSpec: {"twist": 3, "section": "x1"},
         PoleData: {"abscissa": 1.0, "order": 2, "theta": 1.5,
                    "delta0": 0.5, "kappa": 0.25}}


def values(cls):
    return {name: VALID.get(cls, {}).get(name, ("value of", name))
            for name, _default in FIELDS[cls]}


def expected_default(default):
    return default.value if isinstance(default, Fresh) else default


RECORDS = pytest.mark.parametrize("cls", list(FIELDS),
                                  ids=lambda cls: cls.__name__)


@RECORDS
def test_fields_order_and_defaults(cls):
    names = [name for name, _default in FIELDS[cls]]
    assert list(inspect.signature(cls).parameters) == names
    vals = values(cls)
    required = {name: vals[name] for name, default in FIELDS[cls]
                if default is REQUIRED}
    first, second = cls(**required), cls(**required)
    for name, default in FIELDS[cls]:
        if default is REQUIRED:
            continue
        assert getattr(first, name) == expected_default(default)
        if isinstance(default, Fresh):
            # never one object shared by every record
            assert getattr(first, name) is not getattr(second, name)


@RECORDS
def test_keyword_and_positional_records_are_equal(cls):
    vals = values(cls)
    by_keyword = cls(**vals)
    by_position = cls(*vals.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert [getattr(by_position, name) for name in vals] == list(vals.values())


@RECORDS
def test_fields_cannot_be_assigned(cls):
    record = cls(**values(cls))
    for name, _default in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, 3)
        with pytest.raises(AttributeError):
            delattr(record, name)


@RECORDS
def test_repr_names_every_field(cls):
    vals = values(cls)
    assert repr(cls(**vals)) == (f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in vals.items()) + ")")


@RECORDS
def test_named_tuples_have_tuple_semantics(cls):
    if cls is DirichletOracle:
        # a NamedTuple cannot hold fields whose names begin with "_"
        assert not isinstance(cls(**values(cls)), tuple)
        return
    vals = values(cls)
    record = cls(**vals)
    assert record._fields == tuple(vals)
    assert record == tuple(vals.values())
    assert list(record) == list(vals.values())
    name = next(reversed(vals))
    if cls not in VALID:
        assert record._replace(**{name: 7}) == tuple(vals.values())[:-1] + (7,)


def test_validating_records_check_every_construction():
    spec = TorsorSpec(2.0)
    assert type(spec.twist) is int and spec == TorsorSpec(2)
    for bad in ({"twist": 1.5}, {"twist": float("inf")},
                {"twist": float("nan")}, {"twist": 1, "section": "x2"}):
        with pytest.raises(FibrationError):
            TorsorSpec(**bad)
    assert type(spec._replace(twist=4.0).twist) is int
    with pytest.raises(FibrationError):
        spec._replace(section="y")
    pole = PoleData(1.0, 2, 1.5, 0.5)
    for name, bad in (("abscissa", 0.0), ("order", 0), ("theta", -1.0),
                      ("delta0", 1.0), ("kappa", -0.1)):
        with pytest.raises(TauberianError):
            PoleData(**{**pole._asdict(), name: bad})
        with pytest.raises(TauberianError):
            pole._replace(**{name: bad})


def test_only_fan_and_pl_function_are_dataclasses():
    # each @dataclass generates its methods with exec on every start of
    # the program; the records are NamedTuples instead
    found = set()
    for info in pkgutil.iter_modules(manin_toric.__path__):
        module = importlib.import_module(f"manin_toric.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(obj)
    assert found == {Fan, PLFunction}
