from __future__ import annotations

import gridest


def test_every_exported_name_resolves():
    missing = [name for name in gridest.__all__ if not hasattr(gridest, name)]
    assert missing == []
    assert len(set(gridest.__all__)) == len(gridest.__all__)
