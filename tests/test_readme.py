"""The README's library examples run against the package as it is."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]


def test_first_python_example_runs(capsys):
    exec(compile(_python_examples()[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert float(lines[0]) == pytest.approx(1.1202676, abs=2e-5)
    assert lines[1].startswith("(120.0, 1.0943")
    assert float(lines[3]) == pytest.approx(1.1199, abs=1e-4)


def test_frame_path_example_runs(capsys, tmp_path, monkeypatch):
    """The second example estimates a simulated ``frames.csv`` with the first one's fit."""
    from partialflow.cli import main

    first, second = _python_examples()[:2]
    namespace = {}
    exec(compile(first, str(README), "exec"), namespace)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--flow-lps", "3", "--frames", "3", "--out", "frames.csv"]) == 0
    capsys.readouterr()
    exec(compile(second, str(README), "exec"), namespace)
    assert [line.split()[2:] for line in capsys.readouterr().out.splitlines()] == [
        ["ok", "False", "None"]] * 3
    records = namespace["records"]
    assert namespace["config"].poly == namespace["fit"].polynomial
    assert [1000 * r.flow_m3s for r in records] == pytest.approx([3.0] * 3, rel=1e-3)
    assert [r.status.value for r in records] == ["ok"] * 3
