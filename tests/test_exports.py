"""The package's public surface: ``zdglab.__all__`` and ``from zdglab import *``."""

import zdglab


def test_every_exported_name_resolves():
    assert len(zdglab.__all__) == len(set(zdglab.__all__))
    assert [name for name in zdglab.__all__ if not hasattr(zdglab, name)] == []
    namespace = {}
    exec("from zdglab import *", namespace)
    assert set(zdglab.__all__) <= set(namespace)
