"""Every module of the package parses under the declared Python floor.

``pyproject.toml`` declares ``requires-python >=3.9``, while the test
suite usually runs on a newer interpreter.  This test parses each module
under ``src/repro`` with ``ast.parse(..., feature_version=(3, 9))``, so
3.10+ *syntax* (``match`` statements, parenthesised context managers,
``except*``) fails here.  It checks syntax only: a call to a stdlib API
added after 3.9 (``array.index(x, start, stop)``, ``bisect(..., key=)``,
``zip(..., strict=True)``) still parses and is not caught.
"""

import ast
from pathlib import Path

import pytest

FLOOR = (3, 9)
PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = sorted(PACKAGE.rglob("*.py"))


def test_package_modules_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
