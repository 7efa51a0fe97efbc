"""The package's public surface."""

import driftwatch


def test_every_exported_name_resolves():
    missing = [name for name in driftwatch.__all__ if not hasattr(driftwatch, name)]
    assert missing == []
