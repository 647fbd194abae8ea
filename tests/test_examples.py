"""Every example script imports cleanly against the current public API.

The examples are only run by hand, so a removed or renamed public name they
use would otherwise go unnoticed.  Importing a script executes its imports
and definitions but not ``main()`` (each is guarded by ``__main__``).
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
