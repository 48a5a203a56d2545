"""The package root's public surface."""

import types

import focusrank


def test_root_exports_only_what_callers_import():
    # Everything else is reached through its submodule, e.g. `focusrank.data`.
    names = {
        name for name in dir(focusrank)
        if not name.startswith("_") and not isinstance(getattr(focusrank, name), types.ModuleType)
    }
    assert names == {"RetrievalModel", "TextSequence", "VideoClip"}
