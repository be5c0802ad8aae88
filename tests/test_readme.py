"""The README's library example runs against the package as it is."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_example_runs(capsys):
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert float(lines[0]) == pytest.approx(1.1202676, abs=2e-5)
    assert lines[1].startswith("(120.0, 1.0943")
    assert float(lines[3]) == pytest.approx(1.1199, abs=1e-4)
