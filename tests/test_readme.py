"""README's Python examples run as written, so the documented library API
cannot drift from the code."""

import pathlib
import re

import pytest

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                     _README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(_BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(_BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})
