"""The package's public names: every name in ``khoma.__all__`` resolves."""

import khoma


def test_every_exported_name_resolves():
    missing = [name for name in khoma.__all__ if not hasattr(khoma, name)]
    assert not missing
    assert len(set(khoma.__all__)) == len(khoma.__all__)
