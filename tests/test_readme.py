"""The README's library example runs against the current API and prints what its comments say."""

import re
from fractions import Fraction as F
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_example() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1, "expected exactly one fenced Python example in README.md"
    return blocks[0]


def test_readme_example_states_its_values():
    code = _python_example()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    profile = namespace["profile"]
    assert (namespace["h"], namespace["h_lin"]) == (F(7, 4), F(5, 3))
    assert profile.value_at_p(1) == F(17, 7)
    assert profile.points == ((0, 0), (F(5, 12), 2), (F(1, 2), F(17, 7)))
    # the comments state the same values
    assert "# 7/4, 5/3" in code
    assert "# Fraction(17, 7)" in code
    assert "(0, 0), (5/12, 2), (1/2, 17/7)" in code
