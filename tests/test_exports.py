import atsp


def test_every_exported_name_resolves_on_the_package():
    # a deleted public name must not linger in __all__
    assert [name for name in atsp.__all__ if not hasattr(atsp, name)] == []
