import types

import tensorgds


def test_all_lists_exactly_the_imported_public_names():
    # a name deleted from a module cannot linger in __all__, and a new export
    # cannot be left out of it
    names = tensorgds.__all__
    assert names == sorted(names)
    assert all(hasattr(tensorgds, name) for name in names)
    public = {
        name
        for name, value in vars(tensorgds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
