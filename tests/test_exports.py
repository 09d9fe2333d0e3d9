import inspect

import atsp
from atsp import errors


def test_every_exported_name_resolves_on_the_package():
    # a deleted public name must not linger in __all__
    assert [name for name in atsp.__all__ if not hasattr(atsp, name)] == []


def test_all_exports_exactly_the_error_types_of_atsp_errors():
    defined = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.AtspError)
    }
    exported = {
        name
        for name in atsp.__all__
        if inspect.isclass(getattr(atsp, name, None))
        and issubclass(getattr(atsp, name), BaseException)
    }
    assert exported == defined
