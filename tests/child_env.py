"""The environment a test runs a child interpreter in."""

from __future__ import annotations

import os
from pathlib import Path

import corrlab


def child_env() -> dict[str, str]:
    """This process's environment with the directory holding the corrlab under test first on PYTHONPATH.

    A child ``python -m corrlab`` then imports the same package as the
    tests, whether pytest found it through PYTHONPATH or its own
    ``pythonpath`` setting, which a child does not inherit.
    """
    package_root = str(Path(corrlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env
