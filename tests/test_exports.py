"""Every name a ``repro`` module exports in ``__all__`` resolves.

A name left in an export list after its definition is deleted breaks
``from repro.x import *`` only when someone runs it; this test runs it
for every module.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    missing = []
    exported = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        names = getattr(module, "__all__", ())
        exported += len(names)
        missing += [f"{info.name}.{name}" for name in names if not hasattr(module, name)]
    assert exported > 0
    assert not missing, missing
