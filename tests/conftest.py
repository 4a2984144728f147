"""Shared cached constructions: building a MUB family is the slow step.

``src`` goes on ``sys.path`` and on ``PYTHONPATH``, so a bare ``pytest``
finds the package without an install, and so do the CLI subprocesses the
tests start.
"""

import os
import sys
from functools import lru_cache
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

from pimub import build_family, enumerate_orbits, make_field  # noqa: E402


@lru_cache(maxsize=None)
def field(n):
    return make_field(n)


@lru_cache(maxsize=None)
def family(n):
    return build_family(field(n))


@lru_cache(maxsize=None)
def orbit_table(n):
    return enumerate_orbits(field(n))
