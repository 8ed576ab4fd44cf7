import inspect
import pickle

import pytest

from aia import errors

# Constructor arguments past the message, for the classes that take any.
EXTRA_ARGS = {"SchemaError": {"path": "/x.json"}, "RateLimited": {"retry_after": 2.5}}

ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.AiaError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_survives_pickling(cls):
    # A featurize worker hands its error to the parent by pickle: the copy
    # must read and carry exactly what the original does.
    error = cls("bad", **EXTRA_ARGS.get(cls.__name__, {}))
    copy = pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
    assert copy.args == error.args


def test_extra_arguments_name_real_classes():
    assert set(EXTRA_ARGS) <= {cls.__name__ for cls in ERROR_CLASSES}
    assert len(ERROR_CLASSES) > len(EXTRA_ARGS)
