"""The record types: fields, defaults, construction, repr, equality and
immutability."""

import pytest

from edgeid.bounds import BoundEntry, BoundsReport
from edgeid.families import FamilyInstance
from edgeid.graph_core import EdgeSet, Graph
from edgeid.identify import VerifyReport
from edgeid.reduction import ReductionInstance, SatFormula
from edgeid.solver import DEFAULT_BUDGET, SolveOptions, SolveResult

G = Graph(3, [(0, 1), (1, 2)])
ENTRY = BoundEntry("log", 2, "lower", True)

# (record, field names in order, required fields, defaults of the rest)
FIELDS = [
    (BoundEntry, ("name", "value", "direction", "applicable", "reason"),
     dict(name="log", value=2, direction="lower", applicable=True), dict(reason="")),
    (BoundsReport, ("entries",), dict(entries=[ENTRY]), {}),
    (FamilyInstance, ("graph", "claimed_code", "claimed_gamma", "provenance", "code_kind"),
     dict(graph=G),
     dict(claimed_code=None, claimed_gamma=None, provenance="", code_kind="edge")),
    (VerifyReport,
     ("is_dominating", "is_separating", "undominated", "unseparated", "truncated"),
     dict(is_dominating=True, is_separating=False),
     dict(undominated=[], unseparated=[], truncated=False)),
    (SatFormula, ("num_vars", "clauses"), dict(num_vars=1, clauses=(((0, True),),)), {}),
    (ReductionInstance, ("graph", "k", "labels", "params", "formula", "slot_literals"),
     dict(graph=G, k=3, labels={"a": 0}, params="base", formula=SatFormula(1, ()),
          slot_literals=((None,),)), {}),
    (SolveOptions, ("budget", "upper_hint"), {},
     dict(budget=DEFAULT_BUDGET, upper_hint=None)),
    (SolveResult, ("status", "code", "size", "lower_bound_used", "nodes_used"),
     dict(status="Optimal"),
     dict(code=None, size=None, lower_bound_used=None, nodes_used=0)),
]

# Sample instances and their repr, as printed when these were dataclasses.
REPRS = [
    (ENTRY, "BoundEntry(name='log', value=2, direction='lower', applicable=True, reason='')"),
    (BoundEntry("x", 1, "upper", False, reason="why"),
     "BoundEntry(name='x', value=1, direction='upper', applicable=False, reason='why')"),
    (BoundsReport([ENTRY]),
     "BoundsReport(entries=[BoundEntry(name='log', value=2, direction='lower', "
     "applicable=True, reason='')])"),
    (FamilyInstance(graph=G),
     "FamilyInstance(graph=Graph(n=3, m=2), claimed_code=None, claimed_gamma=None, "
     "provenance='', code_kind='edge')"),
    (FamilyInstance(G, EdgeSet.from_indices(G, [0]), 1, "p", "vertex"),
     "FamilyInstance(graph=Graph(n=3, m=2), claimed_code=EdgeSet([0]), claimed_gamma=1, "
     "provenance='p', code_kind='vertex')"),
    (VerifyReport(True, False),
     "VerifyReport(is_dominating=True, is_separating=False, undominated=[], "
     "unseparated=[], truncated=False)"),
    (VerifyReport(False, False, [1], [(0, 1, (2,))], True),
     "VerifyReport(is_dominating=False, is_separating=False, undominated=[1], "
     "unseparated=[(0, 1, (2,))], truncated=True)"),
    (SatFormula(2, [[(0, 1), (1, 0)]]),
     "SatFormula(num_vars=2, clauses=(((0, True), (1, False)),))"),
    (ReductionInstance(G, 3, {"a": 0}, "base", SatFormula(1, ()), ((None,),)),
     "ReductionInstance(graph=Graph(n=3, m=2), k=3, labels={'a': 0}, params='base', "
     "formula=SatFormula(num_vars=1, clauses=()), slot_literals=((None,),))"),
    (SolveOptions(), "SolveOptions(budget=100000000, upper_hint=None)"),
    (SolveOptions(budget=5, upper_hint=[1, 2]), "SolveOptions(budget=5, upper_hint=[1, 2])"),
    (SolveResult("Optimal"),
     "SolveResult(status='Optimal', code=None, size=None, lower_bound_used=None, "
     "nodes_used=0)"),
    (SolveResult("Feasible", EdgeSet.from_indices(G, [1]), 1, ("log", 1), 7),
     "SolveResult(status='Feasible', code=EdgeSet([1]), size=1, "
     "lower_bound_used=('log', 1), nodes_used=7)"),
]


@pytest.mark.parametrize("record, names, required, defaults", FIELDS,
                         ids=[f[0].__name__ for f in FIELDS])
def test_fields_defaults_and_keyword_construction(record, names, required, defaults):
    assert record._fields == names
    made = record(**required)
    assert {name: getattr(made, name) for name in names} == {**required, **defaults}
    assert record(**required, **defaults) == made
    assert record(*[getattr(made, name) for name in names]) == made


@pytest.mark.parametrize("record, names, required, defaults", FIELDS,
                         ids=[f[0].__name__ for f in FIELDS])
def test_fields_cannot_be_assigned(record, names, required, defaults):
    made = record(**required)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(made, name, getattr(made, name))
    with pytest.raises(AttributeError):
        made.extra = 1


@pytest.mark.parametrize("sample, text", REPRS)
def test_repr_and_equality(sample, text):
    assert repr(sample) == text
    twin = type(sample)(*sample)
    assert twin == sample and twin is not sample


def test_sat_formula_normalises_clauses():
    f = SatFormula(num_vars=2, clauses=[[(0, 1), (1, 0)], [[1, ""], [0, "x"]]])
    assert f.clauses == (((0, True), (1, False)), ((1, False), (0, True)))
    assert all(type(c) is tuple and all(type(lit) is tuple for lit in c) for c in f.clauses)
    assert f._replace(clauses=[[(1, 1)]]).clauses == (((1, True),),)


def test_verify_report_default_lists_are_not_shared():
    first, second = VerifyReport(True, True), VerifyReport(True, True)
    assert first.undominated == [] and first.undominated is not second.undominated
    assert first.unseparated == [] and first.unseparated is not second.unseparated
