"""The fields that == and repr read are the constructor's parameters.

Each public class lists them once, in _fields; a parameter missing from
that tuple would be left out of both.
"""

import inspect

import pytest

from bitsudoku.grid import Grid
from bitsudoku.smallset import SmallSet
from bitsudoku.solver import SolveReport, SolverState


@pytest.mark.parametrize("cls", [Grid, SmallSet, SolverState, SolveReport],
                         ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_parameters_in_order(cls):
    assert cls._fields == tuple(inspect.signature(cls).parameters)
