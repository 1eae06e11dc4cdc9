"""README's ```python blocks, run in order in one namespace, so the library
example cannot go stale."""

import re
import warnings
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert blocks, "README.md holds no ```python block"
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # empty bands, constant features
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
    np.testing.assert_array_equal(namespace["first"].words, namespace["rows"][0])
