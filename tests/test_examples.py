"""The examples import only names the package still provides."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_resolve(path):
    # Runs the module body but not its __main__ block: every import
    # resolves and main() is defined, without the example's run time.
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
