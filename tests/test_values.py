"""The value-class contract: every immutable type compares, hashes, prints
and refuses mutation the same way, whatever machinery builds it."""

import copy
import pickle
from fractions import Fraction

import pytest

from parcost import (Assignment, AssignmentProblem, CostMatrix, DrpInstance,
                     FractionalMatchingState, GopInstance, GopSolution, Graph,
                     IoReport, SortInstance, TransferMatrix, TspFbInstance)
from parcost.bench import SweepSpec
from parcost.core import Value

ENTRIES = ((0, 1), (2, 0))


def _kwargs():
    """(class, keyword arguments, positional arguments, exact repr) per class."""
    cost = dict(entries=ENTRIES)
    sort = dict(subsets=((1,), (2,)))
    return [
        (CostMatrix, cost, (ENTRIES,), "CostMatrix(entries=((0, 1), (2, 0)))"),
        (TransferMatrix, cost, (ENTRIES,), "TransferMatrix(entries=((0, 1), (2, 0)))"),
        (Assignment, dict(mapping=(2, 1)), ((2, 1),), "Assignment(mapping=(2, 1))"),
        (SortInstance, sort, (((1,), (2,)),), "SortInstance(subsets=((1,), (2,)))"),
        (GopSolution,
         dict(splitters=(1,), assignment=Assignment((1, 2)), comm_cost=1,
              io_cost=0.0),
         ((1,), Assignment((1, 2)), 1, 0.0),
         "GopSolution(splitters=(1,), assignment=Assignment(mapping=(1, 2)), "
         "comm_cost=1, io_cost=0.0, total_cost=1.0)"),
        (IoReport, dict(phases=(("a", 1, 0),)), ((("a", 1, 0),),),
         "IoReport(phases=(('a', 1, 0),), total_io=1, total_comm=0, extras={})"),
        (Graph, dict(n_vertices=2, edges=((1, 2, 3),)), (2, ((1, 2, 3),)),
         "Graph(n_vertices=2, edges=((1, 2, 3),))"),
        (FractionalMatchingState,
         dict(x=(1,), frozen_vertices=frozenset({1}), epsilon=Fraction(1, 10)),
         ((1,), frozenset({1}), Fraction(1, 10)),
         "FractionalMatchingState(x=(1,), frozen_vertices=frozenset({1}), "
         "epsilon=Fraction(1, 10))"),
        (DrpInstance,
         dict(transfer=TransferMatrix(ENTRIES), cost=CostMatrix(ENTRIES)),
         (TransferMatrix(ENTRIES), CostMatrix(ENTRIES)),
         "DrpInstance(transfer=TransferMatrix(entries=((0, 1), (2, 0))), "
         "cost=CostMatrix(entries=((0, 1), (2, 0))))"),
        (TspFbInstance, dict(weights=ENTRIES), (ENTRIES,),
         "TspFbInstance(weights=((0, 1), (2, 0)))"),
        (SweepSpec, dict(kind="drp-ratio", sizes=(2, 3)), ("drp-ratio", (2, 3)),
         "SweepSpec(kind='drp-ratio', sizes=(2, 3), trials=1, seed=0, cost_low=1, "
         "cost_high=10, mass_max=20, p=None, memory=None, epsilon=Fraction(1, 10), "
         "edge_factor=4, guard=None)"),
        (AssignmentProblem, dict(weights=ENTRIES), (ENTRIES,),
         "AssignmentProblem(weights=((0, 1), (2, 0)))"),
        (GopInstance,
         dict(inst=SortInstance(((1,), (2,))), cost=CostMatrix(ENTRIES)),
         (SortInstance(((1,), (2,))), CostMatrix(ENTRIES)),
         "GopInstance(inst=SortInstance(subsets=((1,), (2,))), "
         "cost=CostMatrix(entries=((0, 1), (2, 0))))"),
    ]


CASES = _kwargs()
IDS = [cls.__name__ for cls, *_ in CASES]


def test_all_value_classes_are_covered():
    assert len(CASES) == 13


@pytest.mark.parametrize("cls, kwargs, args, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, args, text):
    a, b = cls(**kwargs), cls(*args)
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    for name, value in kwargs.items():
        assert getattr(a, name) == value


@pytest.mark.parametrize("cls, kwargs, args, text", CASES, ids=IDS)
def test_equal_inputs_give_equal_objects_and_hashes(cls, kwargs, args, text):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b
    if cls is IoReport:
        # extras is a dict, so a report is as unhashable as its fields
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls, kwargs, args, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, args, text):
    obj = cls(**kwargs)
    for name in kwargs:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == text


@pytest.mark.parametrize("cls, kwargs, args, text", CASES, ids=IDS)
def test_never_equal_to_other_types(cls, kwargs, args, text):
    obj = cls(**kwargs)
    assert obj != kwargs and obj != tuple(kwargs.values()) and obj != text


@pytest.mark.parametrize("cls, kwargs, args, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, kwargs, args, text):
    obj = cls(**kwargs)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj and repr(clone) == text


def test_same_entries_in_different_matrix_classes_differ():
    assert CostMatrix(ENTRIES) != TransferMatrix(ENTRIES)
    assert TransferMatrix(ENTRIES) != CostMatrix(ENTRIES)
    assert AssignmentProblem(ENTRIES) != TspFbInstance(ENTRIES)


def test_different_field_values_differ():
    assert Assignment((1, 2)) != Assignment((2, 1))
    assert SweepSpec("drp-ratio", (2,)) != SweepSpec("drp-ratio", (2,), trials=2)


def test_defaults():
    spec = SweepSpec(kind="mm-io", sizes=[4, 8])
    assert (spec.trials, spec.seed, spec.cost_low, spec.cost_high, spec.mass_max,
            spec.p, spec.memory, spec.epsilon, spec.edge_factor, spec.guard) == (
        1, 0, 1, 10, 20, None, None, Fraction(1, 10), 4, None)
    assert spec.sizes == (4, 8)


def test_sweep_spec_reads_epsilon_as_text_or_number():
    text = SweepSpec(kind="mm-io", sizes=(8,), epsilon="1/5")
    assert text == SweepSpec(kind="mm-io", sizes=(8,), epsilon=Fraction(1, 5))
    assert type(text.epsilon) is Fraction
    assert SweepSpec(kind="mm-io", sizes=(8,), epsilon="0.2") == text


def test_io_report_extras_is_a_fresh_dict_per_instance():
    a = IoReport((("a", 1, 0),))
    b = IoReport((("a", 1, 0),))
    assert a.extras == {} and b.extras == {}
    assert a.extras is not b.extras
    extras = {"k": 1}
    assert IoReport((), extras).extras is extras


def test_fields_are_normalized_at_construction():
    assert Assignment([2, 1]).mapping == (2, 1)
    assert CostMatrix([[0, 1.5], [2, 0]]).entries == ((0, Fraction(3, 2)), (2, 0))
    assert Graph(2, [[1, 2, 0.5]]).edges == ((1, 2, Fraction(1, 2)),)
    assert IoReport([["a", 1, 0]]).phases == (("a", 1, 0),)
    assert GopSolution([1], Assignment((1, 2)), 1, 0.0).splitters == (1,)


class Pair(Value):
    """A throwaway value type, built by the base constructor alone."""

    __slots__ = _fields = ("first", "second")


def test_the_base_fills_the_slots_in_order_and_refuses_a_count_mismatch():
    pair = Pair(1, 2)
    assert (pair.first, pair.second) == (1, 2)
    assert pickle.loads(pickle.dumps(pair)) == pair
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            Pair(*values)
