import inspect
import pickle
import re

import pytest

from garchmc import exceptions

#: Every GarchMCError subclass the package defines.
ERRORS = [cls for _, cls in inspect.getmembers(exceptions, inspect.isclass)
          if issubclass(cls, exceptions.GarchMCError) and cls is not exceptions.GarchMCError]


def _snake(cls):
    """TuningFailureError -> tuning_failure."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__.removesuffix("Error")).lower()


@pytest.mark.parametrize("cls", ERRORS, ids=_snake)
def test_error_survives_pickling(cls):
    # A --chains worker hands its error to the parent process pickled.
    exc = cls("acceptance 0.100 not in band")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) == "acceptance 0.100 not in band"
