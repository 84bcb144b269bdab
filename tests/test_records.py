"""Value semantics of the package's records: repr text, equality only within
one class, immutability, pickling and copying, and construction by position
or keyword with defaults."""

import copy
import pickle

import pytest

from andortrees.analytic import singularity
from andortrees.complexity import B_EXPANSION, ComplexityRecord, ExpansionStep, complexity
from andortrees.counting import series
from andortrees.distribution import exact_distribution, function_counts, limit_estimate
from andortrees.formula import (
    Assignment,
    Leaf,
    Literal,
    Node,
    Record,
    TruthTable,
    VariableRangeError,
    parse_formula,
)
from andortrees.sampler import McReport, StatResult
from andortrees.verify import CheckResult

TREE = "(and x1 (or ~x2 x3))"


def _report(seconds=0.25, trees_per_s=40.0):
    stats = {"rate": StatResult(0.5, 0.1, (0.3, 0.7), extra={"hits": 5})}
    return McReport(5, 2, 10, 1, "g", stats, seconds, trees_per_s)


#: one instance of every record class
RECORDS = {
    "Literal": lambda: Literal(2, True),
    "Leaf": lambda: Leaf(Literal(1)),
    "Node": lambda: parse_formula(TREE, 3),
    "Assignment": lambda: Assignment((True, False)),
    "TruthTable": lambda: TruthTable(3, 0x96),
    "CountSeries": lambda: series(1, 4),
    "CountTable": lambda: function_counts(3, 1),
    "Distribution": lambda: exact_distribution(3, 1),
    "LimitReport": lambda: limit_estimate(1, TruthTable(1, 3), M=20),
    "StatResult": lambda: StatResult(0.5, 0.1, (0.3, 0.7)),
    "McReport": _report,
    "ComplexityRecord": lambda: complexity(TruthTable(2, 8), 2),
    "ExpansionStep": lambda: ExpansionStep((1,), 0, parse_formula("(and x2 ~x2)", 2)),
    "SingularPoint": lambda: singularity(2),
    "CheckResult": lambda: CheckResult("1a", 1, "name", True, 0.5, {"k": [1, 2]}),
}

#: the classes that take the generic `Record` constructor
GENERIC = (
    "Assignment", "CheckResult", "ComplexityRecord", "CountSeries", "CountTable",
    "Distribution", "LimitReport", "McReport", "SingularPoint", "StatResult",
)


def test_repr_is_the_field_by_field_text():
    assert repr(Literal(2, True)) == "Literal(var=2, negated=True)"
    assert repr(Leaf(Literal(1))) == "Leaf(literal=Literal(var=1, negated=False))"
    assert repr(parse_formula(TREE, 3)) == (
        "Node(op='and', children=(Leaf(literal=Literal(var=1, negated=False)), "
        "Node(op='or', children=(Leaf(literal=Literal(var=2, negated=True)), "
        "Leaf(literal=Literal(var=3, negated=False))))))"
    )
    assert repr(TruthTable(3, 0x96)) == "TruthTable(n=3, bits=150)"
    assert repr(StatResult(estimate=None, stderr=None, ci95=None)) == (
        "StatResult(estimate=None, stderr=None, ci95=None, extra={})"
    )
    assert repr(_report()) == (
        "McReport(m=5, n=2, trials=10, seed=1, generator='g', stats={'rate': "
        "StatResult(estimate=0.5, stderr=0.1, ci95=(0.3, 0.7), extra={'hits': 5})}, "
        "seconds=0.25, trees_per_s=40.0)"
    )
    assert repr(complexity(TruthTable(2, 8), 2)) == (
        "ComplexityRecord(f=TruthTable(n=2, bits=8), L=3, m_f=2, witnesses=None)"
    )


def test_equality_holds_only_within_one_class():
    assert Literal(1, False) != TruthTable(1, 0)
    assert not Literal(1, False) == TruthTable(1, 0)
    assert Leaf(Literal(1)) != Literal(1)
    assert Literal(1, False) != (1, False)
    assert Literal(1) == Literal(1, False) and hash(Literal(1)) == hash(Literal(1, False))
    assert parse_formula(TREE, 3) == parse_formula(TREE, 3)
    assert hash(parse_formula(TREE, 3)) == hash(parse_formula(TREE, 3))
    assert parse_formula(TREE, 3) != parse_formula("(and x1 (or ~x2 x2))", 3)
    assert parse_formula(TREE, 3) != parse_formula("(or x1 (and ~x2 x3))", 3)
    assert len({TruthTable(2, 6), TruthTable(2, 6), TruthTable(3, 6)}) == 2


def test_mc_report_timing_is_shown_but_not_compared():
    fast, slow = _report(0.25, 40.0), _report(2.5, 4.0)
    assert fast == slow
    assert repr(fast) != repr(slow)
    assert fast != McReport(5, 2, 10, 2, "g", fast.stats, 0.25, 40.0)  # another seed


def test_a_dict_field_makes_the_record_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(StatResult(1.0, 0.0, None))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(_report())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    field = record.__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_and_deepcopy_round_trip(name):
    record = RECORDS[name]()
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_keyword_construction_and_defaults():
    assert Literal(var=3) == Literal(3, False)
    first = StatResult(estimate=0.5, stderr=None, ci95=None)
    second = StatResult(estimate=0.5, stderr=None, ci95=None)
    assert first.extra == {} and first.extra is not second.extra
    checks = [CheckResult(check_id="1a", criterion=1, name="x", passed=True, seconds=0.1)
              for _ in range(2)]
    assert checks[0].detail == {} and checks[0].detail is not checks[1].detail
    step = ExpansionStep(host_path=(), position=0, inserted=parse_formula("(or x1 ~x1)", 1))
    assert step.kind == B_EXPANSION
    record = ComplexityRecord(f=TruthTable(2, 8), **dict(L=3, m_f=2, witnesses=None))
    assert record == complexity(TruthTable(2, 8), 2)
    assert StatResult(estimate=0.5, stderr=None, ci95=None, extra=None).extra == {}
    assert CheckResult("1a", 1, "x", True, 0.1, detail=None).detail == {}


@pytest.mark.parametrize("name", GENERIC)
def test_constructor_rejects_missing_extra_unknown_and_repeated_fields(name):
    record = RECORDS[name]()
    cls, fields = type(record), record.as_dict()
    first, *rest = fields
    values = list(fields.values())
    assert cls(*values) == record and cls(**fields) == record
    assert cls(*values[:1], **{k: fields[k] for k in rest}) == record
    with pytest.raises(TypeError, match=f"{name} is missing field '{first}'"):
        cls(**{k: fields[k] for k in rest})
    with pytest.raises(TypeError, match=f"{name} takes {len(values)} fields, got"):
        cls(*values, None)
    with pytest.raises(TypeError, match=f"{name} has no field 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"{name} got field '{first}' twice"):
        cls(*values, **{first: values[0]})


def test_only_validating_classes_and_leaf_write_a_constructor():
    classes, stack = [], [Record]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    own = {cls.__name__ for cls in classes if "__init__" in vars(cls)}
    assert own == {"Record", "Literal", "Leaf", "Node", "TruthTable", "ExpansionStep"}
    assert {cls.__name__ for cls in classes} >= set(GENERIC)


def test_constructors_still_validate():
    with pytest.raises(VariableRangeError):
        Literal(0)
    with pytest.raises(ValueError):
        Node("xor", (Leaf(Literal(1)), Leaf(Literal(2))))
    with pytest.raises(ValueError):
        TruthTable(1, 4)
    with pytest.raises(ValueError):
        ExpansionStep((), 0, Leaf(Literal(1)))
