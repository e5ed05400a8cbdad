"""Puts src/ on PYTHONPATH for the interpreters that tests start, as
pyproject.toml's pythonpath does for the test process itself."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
