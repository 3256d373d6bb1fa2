"""Every package error survives pickling, as it must to cross a process pool."""

import pickle

import pytest

from weilgram import errors
from weilgram.errors import WeilgramError

# constructor arguments of the classes whose __init__ formats a message
ARGS = {
    errors.NotPrime: (4,),
    errors.InvalidDegree: (0,),
    errors.SingularCurve: ((1, 0, 2), 1),
    errors.BudgetExceeded: (24389, 1000),
}
ERROR_TYPES = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, WeilgramError)]


def test_every_error_class_is_covered():
    assert WeilgramError in ERROR_TYPES and errors.NotPrimePower in ERROR_TYPES
    assert set(ARGS) <= set(ERROR_TYPES)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    exc = cls(*ARGS.get(cls, ("some detail",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_formatted_messages_are_not_doubled():
    back = pickle.loads(pickle.dumps(errors.NotPrime(4)))
    assert str(back) == "4 is not prime"
    assert back.p == 4
    back = pickle.loads(pickle.dumps(errors.BudgetExceeded(24389, 1000)))
    assert (back.needed, back.budget) == (24389, 1000)
