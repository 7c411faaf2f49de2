"""Equality, hashing, repr, copying and pickling of the four public classes.

Each case builds three values of one class: two with equal fields and one
that differs from them in a single field.
"""

import copy
import pickle

import pytest

from bitsudoku.grid import Grid
from bitsudoku.smallset import SmallSet
from bitsudoku.solver import Event, SolveReport, SolverState

COMPLETE_4 = [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]]
GRID_REPR = ("Grid(order=2, cells=[[1, 2, 3, 4], [3, 4, 1, 2], "
             "[2, 1, 4, 3], [4, 3, 2, 1]])")


def _grid(v=1):
    cells = [row[:] for row in COMPLETE_4]
    cells[0][0] = v
    return Grid(2, cells)


def _state(open_=(1, 2)):
    return SolverState(2, [1, 0, 0] + [0] * 13, [14, 15] + [15] * 10,
                       list(open_))


def _report(trials=3):
    return SolveReport(1, [_grid()], trials, 2, Event.E3_EXHAUSTED_BY_SEARCH)


CASES = {
    "SmallSet": (lambda: SmallSet(5, 4), lambda: SmallSet(5, 4),
                 lambda: SmallSet(5, 5),
                 "SmallSet(bits=5, capacity=4)"),
    "Grid": (_grid, _grid, lambda: _grid(0), GRID_REPR),
    "SolverState": (
        _state, _state, lambda: _state((1, 3)),
        "SolverState(order=2, cells=[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
        "0, 0, 0, 0], words=[14, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, "
        "15], open=[1, 2])"),
    "SolveReport": (
        _report, _report, lambda: _report(4),
        f"SolveReport(solution_count=1, solutions=[{GRID_REPR}], trials=3, "
        "propagation_passes=2, terminal_event="
        "<Event.E3_EXHAUSTED_BY_SEARCH: 'exhausted-by-search'>, "
        "truncated=False)"),
}

by_class = pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())


@by_class
def test_equality_compares_fields(case):
    make, make_equal, make_other, _ = case
    a, b, c = make(), make_equal(), make_other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c


@by_class
def test_equality_with_another_type_is_not_implemented(case):
    a = case[0]()
    assert a.__eq__(object()) is NotImplemented
    assert a != object() and not a == object()
    assert a != (5, 4)


def test_smallset_hash_is_stable_across_equal_values():
    assert hash(SmallSet(5, 4)) == hash(SmallSet(5, 4)) == hash((5, 4))
    assert len({SmallSet(5, 4), SmallSet(5, 4), SmallSet(5, 5)}) == 2


@pytest.mark.parametrize("name", ["Grid", "SolverState", "SolveReport"])
def test_mutable_classes_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(CASES[name][0]())


@by_class
def test_repr_text(case):
    make, _, _, text = case
    assert repr(make()) == text


@by_class
@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    lambda x: pickle.loads(pickle.dumps(x, 0)),
    lambda x: pickle.loads(pickle.dumps(x, pickle.HIGHEST_PROTOCOL)),
], ids=["copy", "deepcopy", "pickle0", "pickle-highest"])
def test_copies_and_pickles_round_trip(case, clone):
    a = case[0]()
    b = clone(a)
    assert type(b) is type(a)
    assert b == a
    assert repr(b) == repr(a)


def test_deepcopy_shares_no_cells():
    g = _grid()
    h = copy.deepcopy(g)
    h.set_value(1, 1, 0)
    assert g.value(1, 1) == 1


def test_solve_report_by_keyword_defaults_to_not_truncated():
    r = SolveReport(solution_count=0, solutions=[], trials=0,
                    propagation_passes=0,
                    terminal_event=Event.E1_CONTRADICTION)
    assert r.truncated is False
    assert r == SolveReport(0, [], 0, 0, Event.E1_CONTRADICTION, False)
    assert r != SolveReport(0, [], 0, 0, Event.E1_CONTRADICTION, True)


def test_constructors_take_keywords():
    assert Grid(order=2, cells=COMPLETE_4) == _grid()
    assert SmallSet(bits=5, capacity=4) == SmallSet(5, 4)
    s = _state()
    assert SolverState(order=s.order, cells=s.cells, words=s.words,
                       open=s.open) == s


@pytest.mark.parametrize("name", ["bits", "capacity"])
def test_smallset_rejects_assignment_and_deletion(name):
    s = SmallSet(5, 4)
    with pytest.raises(AttributeError):
        setattr(s, name, 1)
    with pytest.raises(AttributeError):
        delattr(s, name)
    assert s == SmallSet(5, 4)


def test_smallset_rejects_new_attributes():
    s = SmallSet(5, 4)
    with pytest.raises(AttributeError):
        s.other = 1
    with pytest.raises(AttributeError):
        del s.other


def test_smallset_has_no_instance_dict():
    s = SmallSet(5, 4)
    assert not hasattr(s, "__dict__")
    assert "bits" in SmallSet.__slots__ and "capacity" in SmallSet.__slots__
