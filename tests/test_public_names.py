"""Every name the package and its modules export resolves.

``bench/tracer.py`` wraps the public functions it finds through these
``__all__`` lists, so a stale entry would break it as well as star imports.
"""

import importlib
import pkgutil

import pytest

import dxml

# Every submodule that declares its public names (``errors`` does not).
MODULES = [
    name for name in sorted(info.name for info in pkgutil.iter_modules(dxml.__path__))
    if hasattr(importlib.import_module(f"dxml.{name}"), "__all__")
]


def test_package_names_resolve():
    missing = [name for name in dxml.__all__ if not hasattr(dxml, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_names_resolve(module):
    mod = importlib.import_module(f"dxml.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_removed_names_stay_removed():
    # Version 0.7.0: the label vectors are a plain (dim x L) array.
    from dxml import graph_embed

    for name in ("EmbeddingMatrix", "SkipgramModel", "train_skipgram"):
        assert not hasattr(dxml, name) and not hasattr(graph_embed, name)
