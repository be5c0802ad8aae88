"""The commands print the same bytes on each of Python 3.10 to 3.13 that is installed.

The FPCF table, the derived and stored ``process``, the profile grid and ``fit`` add their
sums left to right (or by ``math.fsum``), never by the builtin ``sum``, which compensates
from 3.12 on. One child per interpreter, all started at once, runs the commands through
``cli.main`` and prints their outputs as JSON; each is checked against the golden files.
"""

import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from partialflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
INTERPRETERS = ("python3.10", "python3.11", "python3.12", "python3.13")


def _mixed(kind: str) -> list[str]:
    return ["process", "--config", str(DATA / f"mixed_{kind}.cfg"),
            "--frames", str(DATA / "mixed_frames.csv")]


# each command's argv and the golden file its output must equal
GOLDEN = {
    "fpcf": (["fpcf"], "fpcf_default.csv"),
    "process derive": (_mixed("derive"), "mixed_frames_derive.out"),
    "process stored": (_mixed("stored"), "mixed_frames_stored.out"),
    "profile 230": (["profile", "--level-mm", "230", "--nx", "9", "--ny", "9"],
                    "profile_230mm_9x9.csv"),
}

CHILD = """
import contextlib, io, json, sys
from partialflow.cli import main
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        outputs[name] = [main(argv), out.getvalue()]
print(json.dumps({"version": sys.version.split()[0], "outputs": outputs}))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Each installed interpreter's stdout and stderr, its child started beside the others."""
    with_bom = tmp_path_factory.mktemp("bom") / "fpcf_bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + (DATA / "fpcf_default.csv").read_bytes())
    commands = {name: argv for name, (argv, _) in GOLDEN.items()}
    commands["fit"] = ["fit", "--table", str(DATA / "fpcf_default.csv")]
    commands["fit bom"] = ["fit", "--table", str(with_bom)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    pyenv = shutil.which("pyenv")
    if pyenv:  # a pyenv shim runs only a version that PYENV_VERSION names
        env["PYENV_VERSION"] = ":".join(subprocess.run(
            [pyenv, "versions", "--bare"], capture_output=True, text=True).stdout.split())
    found = [py for py in INTERPRETERS if shutil.which(py) and subprocess.run(
        [py, "-c", ""], env=env, capture_output=True).returncode == 0]
    children = {py: subprocess.Popen([py, "-c", CHILD, json.dumps(commands)], env=env, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for py in found}
    try:
        return {py: child.communicate(timeout=120) for py, child in children.items()}
    finally:
        for child in children.values():
            child.kill()
            child.wait()


@pytest.mark.parametrize("py", INTERPRETERS)
def test_same_bytes_on_each_interpreter(py, runs, capsys):
    if py not in runs:
        pytest.skip(f"{py}: not installed")
    out, err = runs[py]
    assert out, f"{py} wrote no result: {err}"
    result = json.loads(out)
    outputs = result["outputs"]
    for name, (_, golden) in GOLDEN.items():
        expected = (DATA / golden).read_bytes().decode("utf-8")
        assert outputs[name] == [0, expected], f"{py} (Python {result['version']}): {name} differs"
    assert main(["fit", "--table", str(DATA / "fpcf_default.csv")]) == 0
    fit = capsys.readouterr().out
    assert outputs["fit"] == outputs["fit bom"] == [0, fit], f"{py}: fit differs"
    with capsys.disabled():
        print(f"\n{py}: Python {result['version']}, same bytes", end=" ")
