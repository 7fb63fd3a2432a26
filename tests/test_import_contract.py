"""What each command imports, pinned per command.

Interpreter start-up and imports are most of every command's wall time, so
a module that a command starts to import shows here first.  Each command
runs in a fresh child process, which reports which package modules and
which :data:`TRACKED` modules are loaded once ``main`` returns.
A change that trims a command's imports tightens its row here.

``dataclasses`` and ``copy`` are tracked to stay absent: the value classes
are plain frozen ``__slots__`` classes, since ``@dataclass`` generates and
compiles each class's methods at import, in every process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from teleportsim import cli

#: the modules outside the package whose loading is pinned
TRACKED = ("numpy", "fractions", "decimal", "dataclasses", "copy")

EVERY_MODULE = {
    "teleportsim",
    "teleportsim.analytic",
    "teleportsim.channels",
    "teleportsim.charts",
    "teleportsim.cli",
    "teleportsim.exact",
    "teleportsim.linalg",
    "teleportsim.teleport",
    "teleportsim.verify",
    "numpy",
    "fractions",
    "decimal",
}

#: command -> (its flags before ``--out``, its exit status, the modules it
#: loads); no command loads ``dataclasses`` or ``copy``
COMMANDS = {
    "sweep": (["--noise", "bitflip", "--steps", "2"], 0, EVERY_MODULE),
    "trace": (["--noise", "bitflip", "--p", "0.1", "--alpha", "0.6", "--beta", "0.8"], 0,
              EVERY_MODULE),
    # the published coherence forms mismatch, so the status is 1
    "verify": ([], 1, EVERY_MODULE),
    "curves": (["--noise", "bitflip", "--steps", "2"], 0, EVERY_MODULE),
}

_CHILD = """
import json, sys
from teleportsim.cli import main
status = main(sys.argv[2:])
loaded = [m for m in sys.modules if m.partition(".")[0] == "teleportsim" or m in TRACKED]
with open(sys.argv[1], "w") as fh:
    json.dump({"status": status, "loaded": sorted(loaded)}, fh)
"""


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_imports(command, tmp_path):
    argv, status, modules = COMMANDS[command]
    package_root = str(Path(cli.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    subprocess.run(
        [sys.executable, "-c", f"TRACKED = {TRACKED!r}" + _CHILD, str(report), command, *argv,
         "--out", str(tmp_path / "out")],
        env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    assert json.loads(report.read_text()) == {"status": status, "loaded": sorted(modules)}
