"""The traced benchmark run (perfbench/run.py --trace 1) wraps flowseq entry points by name.

A refactor that moves or renames one of them would break the traced run only
when it is next invoked; this test finds the break at once.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_site_resolves():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [(getattr(owner, "__name__", owner), attr)
               for owners, attr, _, _ in layers.SITES for owner in owners if not hasattr(owner, attr)]
    assert layers.SITES
    assert not missing, missing
