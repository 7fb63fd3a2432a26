"""Source mutants, each run against the tier-1 suite (a few minutes).

    python3 tests/mutants.py [NAME ...]

Each mutant replaces one exact piece of text in one module of
``src/teleportsim``.  For each, the runner copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` into a temporary directory, applies
the mutant there and runs ``python -m pytest -q -x -p no:cacheprovider`` on
the copy: a failing suite kills the mutant, a passing one lets it survive.  The unmutated copy
runs first and must pass.  Names on the command line run only those mutants.
A mutated copy deselects ``tests/test_mutant_list.py``, which fails on any
copy where a mutant's old text is gone.

Exit status: 2 when a mutant's old text does not occur exactly once in its
file (checked before anything runs) or a name is unknown; 1 when the
unmutated copy fails or a mutant survives that is not listed as equivalent;
0 otherwise.

It is a script, not a pytest module, so the repository's test command does
not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "teleportsim"
TIMEOUT_S = 300
#: the tier-1 guard on this list, which every applied mutant would fail
MATCH_GUARD = "tests/test_mutant_list.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    #: why no test can kill it, for a mutant that cannot change any result
    equivalent: str | None = None


MUTANTS = (
    Mutant(
        "linalg-hermiticity-tolerance",
        "linalg.py",
        "if not dev <= 1e-9:",
        "if not dev <= 1e-3:",
    ),
    Mutant(
        "verify-product-threshold",
        "verify.py",
        "TargetStatus.MATCH if dev_product <= 1e-14",
        "TargetStatus.MATCH if dev_product <= 1e-10",
        equivalent="the product state is fixed and its deviation is the constant "
        "2.776e-17, so every threshold above it gives the same status; the "
        "report prints the deviation, not the threshold",
    ),
    Mutant(
        "exact-pull-back-ancilla-x",
        "exact.py",
        "    if x[2] or x[3]:\n        return None",
        "    if x[2]:\n        return None",
        equivalent="on all 12 (label, wiring) pull-backs through teleport.CIRCUIT, "
        "an X or Y on qubit 3 comes with an X or Y on qubit 2",
    ),
    Mutant(
        "exact-cnot-phase-rule",
        "exact.py",
        "flip = x[a] & z[b] & (x[b] ^ z[a] ^ 1)",
        "flip = x[a] & z[b] & (x[b] ^ z[a])",
    ),
    Mutant(
        "exact-parts-accepts-non-constant",
        "exact.py",
        "        if len(value._re) > 1:\n"
        '            raise TypeError(f"expected a constant, got the polynomial {value}")\n',
        "",
    ),
    Mutant(
        "exact-real-constant-hashes-as-tuple",
        "exact.py",
        "if len(self._re) <= 1 and not any(self._im):",
        "if False:",
    ),
    Mutant(
        "exact-imaginary-part-sign",
        "exact.py",
        "return Fraction(im, den)",
        "return Fraction(-im, den)",
    ),
    Mutant(
        "teleport-x-flips-rows-only",
        "teleport.py",
        "block = block[..., ::-1, ::-1]",
        "block = block[..., ::-1, :]",
    ),
    Mutant(
        "teleport-z-negates-diagonal",
        "teleport.py",
        "_COHERENCES = np.array([[False, True], [True, False]])",
        "_COHERENCES = np.array([[True, False], [False, True]])",
    ),
    Mutant(
        "teleport-x-z-sources-swapped",
        "teleport.py",
        "if outcome[assignment.x_source]:\n"
        "                block = block[..., ::-1, ::-1]\n"
        "            if outcome[assignment.z_source]:",
        "if outcome[assignment.z_source]:\n"
        "                block = block[..., ::-1, ::-1]\n"
        "            if outcome[assignment.x_source]:",
    ),
    Mutant(
        "teleport-ancilla-state",
        "teleport.py",
        "np.diag([1, 0, 0, 0])",
        "np.diag([0, 1, 0, 0])",
    ),
    Mutant(
        "linalg-tensor-operands-swapped",
        "linalg.py",
        "x, y = a.entries, b.entries",
        "x, y = b.entries, a.entries",
    ),
    Mutant(
        "linalg-fold-drops-conjugate",
        "linalg.py",
        "(a.real * b.real + a.imag * b.imag, a.real * b.imag - a.imag * b.real)",
        "(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)",
    ),
    Mutant(
        "linalg-operator-keeps-caller-array",
        "linalg.py",
        'order="C", copy=copy or None)',
        'order="C", copy=None)',
    ),
    Mutant(
        "linalg-cnot-flips-control",
        "linalg.py",
        "index ^ (1 << (n - target))",
        "index ^ (1 << (n - control))",
    ),
    Mutant(
        "linalg-hadamard-keeps-negative-zero",
        "linalg.py",
        "    np.add(out, 0j, out=out)\n",
        "",
    ),
    Mutant(
        "linalg-partial-trace-sorts-keep",
        "linalg.py",
        "order = [q - 1 for q in keep]",
        "order = [q - 1 for q in sorted(keep)]",
    ),
    Mutant(
        "channels-bool-in-batch-accepted",
        "channels.py",
        "if not isinstance(values, np.ndarray) and _BOOLS & set(map(type, values)):",
        "if False:",
    ),
    Mutant(
        "channels-depolarizing-keep-weight",
        "channels.py",
        "w_keep = one - p * scalar(Fraction(3, 4))",
        "w_keep = one - p * scalar(Fraction(1, 2))",
    ),
    Mutant(
        "channels-weights-ignore-zero-sign",
        "channels.py",
        "if _LAST_BRANCHES[0] is spec and",
        "if _LAST_BRANCHES[0] == spec and",
    ),
    Mutant(
        "channels-probability-one-rejected",
        "channels.py",
        "elif not 0 <= self.p <= 1:",
        "elif not 0 <= self.p < 1:",
    ),
    Mutant(
        "analytic-depolarizing-slope",
        "analytic.py",
        "return 6 * t + 4.5",
        "return 6 * t + 4.25",
    ),
    Mutant(
        "analytic-imaginary-check-dropped",
        "analytic.py",
        "if not np.all(np.abs(im) <= 1e-12):",
        "if False:",
    ),
    Mutant(
        "cli-trace-prints-negative-zero",
        "cli.py",
        "EIGENVALUE_DIGITS) + 0.0",
        "EIGENVALUE_DIGITS)",
    ),
    Mutant(
        "cli-sweep-csv-precision",
        "cli.py",
        'row = "%.17g," + state_label(alpha, beta) + ",%.17g"',
        'row = "%.16g," + state_label(alpha, beta) + ",%.17g"',
    ),
)


def check_matches(mutants) -> list[str]:
    """Every mutant whose old text does not occur exactly once, described."""
    errors = []
    for m in mutants:
        count = (ROOT / PACKAGE / m.module).read_text().count(m.old)
        if count != 1:
            errors.append(f"{m.name}: old text occurs {count} times in {m.module}")
    return errors


def run_suite(mutant: Mutant | None) -> tuple[bool, float]:
    """Run tier-1 on a fresh copy with ``mutant`` applied; (passed, seconds)."""
    with tempfile.TemporaryDirectory(prefix="teleportsim-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        # the tracer-binding tests load perfbench/tracer.py
        shutil.copytree(ROOT / "perfbench", work / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            path = work / PACKAGE / mutant.module
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        if mutant is not None:
            command += ["--deselect", MATCH_GUARD]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command,
                cwd=work,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S,
            )
            passed = proc.returncode == 0
        except subprocess.TimeoutExpired:
            passed = False  # a hang is a kill
        return passed, time.perf_counter() - start


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [by_name[name] for name in argv] if argv else list(MUTANTS)
    errors = check_matches(mutants)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    passed, seconds = run_suite(None)
    print(f"{'unmutated':40s} {'passes' if passed else 'FAILS'} ({seconds:.1f} s)")
    if not passed:
        return 1
    killed, unexplained = 0, 0
    for m in mutants:
        passed, seconds = run_suite(m)
        if not passed:
            killed += 1
            verdict = "killed"
        elif m.equivalent:
            verdict = f"survived (equivalent: {m.equivalent})"
        else:
            unexplained += 1
            verdict = "SURVIVED"
        print(f"{m.name:40s} {verdict} ({seconds:.1f} s)", flush=True)
    survived = len(mutants) - killed
    print(f"{len(mutants)} mutants: {killed} killed, {survived} survived, "
          f"{unexplained} of them not equivalent")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
