"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import afterpulse


@pytest.fixture
def subprocess_env():
    """Environment in which a child Python imports this same package.

    ``pytest`` puts ``src`` on its own path only, so a child process gets
    it through ``PYTHONPATH``.
    """
    src = str(Path(afterpulse.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
