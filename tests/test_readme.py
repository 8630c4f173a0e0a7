"""The README's library example runs as written and keeps its promises."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_keeps_its_promises():
    code = library_block()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # lines of the form `expression   # number` promise that value
    promised = re.findall(r"^([^#\n]*?\S)\s+#\s*(-?[0-9][0-9.e+-]*)\s*$",
                          code, re.M)
    assert [value for _, value in promised] == ["10", "2.2"]
    for expr, value in promised:
        assert eval(expr, namespace) == pytest.approx(float(value), rel=1e-12)
    grid, phi2 = namespace["grid"], namespace["phi2"]
    assert grid.h * float(np.dot(phi2, phi2)) == pytest.approx(1.0, abs=1e-9)
    assert len(namespace["report"]) == 6
