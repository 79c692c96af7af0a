"""The package's export list matches what it binds."""

from __future__ import annotations

import types

import bobw


def test_all_lists_every_public_binding():
    public = {
        name
        for name, value in vars(bobw).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(bobw.__all__) == public
