"""The benchmark (perfbench/) imports flowseq names and wraps entry points by name.

A refactor that moves or renames one of them would break the benchmark only
when it is next invoked; these tests find the break at once.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import(name: str):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_site_resolves():
    layers = _import("layers")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owners, attr, _, _ in layers.SITES for owner in owners if not hasattr(owner, attr)]
    assert layers.SITES
    assert not missing, missing


def test_workloads_import():
    workloads = _import("workloads")
    assert set(workloads.WORKLOADS) == {"sumpath-tabular-train", "arith-methods", "sumpath-cli-enumerate"}
