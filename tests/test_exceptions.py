import pickle

import pytest

from garchmc.exceptions import TuningFailureError


@pytest.mark.parametrize("exc, attrs", [
    (TuningFailureError("acceptance 0.100 not in band", last_acceptance=0.1),
     {"last_acceptance": 0.1}),
], ids=["tuning_failure"])
def test_error_survives_pickling(exc, attrs):
    # A --chains worker hands its error to the parent process pickled.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) == exc.args[0]
    for name, value in attrs.items():
        assert getattr(back, name) == value
