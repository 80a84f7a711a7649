import types

import attndecode


def test_all_lists_resolvable_public_names_and_no_modules():
    assert len(set(attndecode.__all__)) == len(attndecode.__all__)
    for name in attndecode.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(attndecode, name), types.ModuleType), name
