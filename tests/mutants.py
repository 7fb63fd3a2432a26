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
        "verify-product-marginal-not-dyadic",
        "verify.py",
        "mixed = Operator([[0.25, 0], [0, 0.75]])",
        "mixed = Operator([[0.3, 0], [0, 0.7]])",
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
        "exact-factor-exponents-wrong-labels",
        "exact.py",
        "for factor_label, e in exponents.items():",
        'for factor_label, e in zip("ZYX", exponents.values()):',
    ),
    Mutant(
        "verify-hoisted-target-eighth-power",
        "verify.py",
        "_R8 = (PolyP.ONE - PolyP([0, 2])) ** 8",
        "_R8 = (PolyP.ONE - PolyP([0, 2])) ** 7",
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
        "block = np.where(_pauli_tables(1, 1)[1], -block, block)",
        "block = np.where(~_pauli_tables(1, 1)[1], -block, block)",
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
        "teleport-noise-layer-shares-gate-slot",
        "teleport.py",
        "rho = apply_layer(noise, rho, out=block[2 * k])",
        "rho = apply_layer(noise, rho, out=block[2 * k - 1])",
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
        "pairs = projector(amps).entries.T.ravel()",
        "pairs = projector(amps).entries.ravel()",
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
        "perm, _ = _pauli_tables(qubits[1], n, qubits[0])",
        "perm, _ = _pauli_tables(qubits[0], n, qubits[1])",
    ),
    Mutant(
        "linalg-z-mask-on-equal-bits",
        "linalg.py",
        "differ = set_bit[:, None] != set_bit[None, :]",
        "differ = set_bit[:, None] == set_bit[None, :]",
    ),
    Mutant(
        "linalg-hadamard-keeps-negative-zero",
        "linalg.py",
        "    np.add(out, 0j, out=out)\n",
        "",
    ),
    Mutant(
        "linalg-cnot-keeps-negative-zero",
        "linalg.py",
        "        out += 0j\n",
        "",
    ),
    Mutant(
        "linalg-partial-trace-sorts-keep",
        "linalg.py",
        "order = [q - 1 for q in keep]",
        "order = [q - 1 for q in sorted(keep)]",
    ),
    Mutant(
        "linalg-projector-conjugates-imaginary",
        "linalg.py",
        "complex(ar * br + ai * bi, ai * br - ar * bi)",
        "complex(ar * br + ai * bi, ar * bi - ai * br)",
    ),
    Mutant(
        "linalg-fidelity-skips-dimension-check",
        "linalg.py",
        "if len(amps) != rho.dim:",
        "if False:",
    ),
    Mutant(
        "teleport-initial-amplitudes-swapped",
        "teleport.py",
        "projector([input_state.alpha, input_state.beta])",
        "projector([input_state.beta, input_state.alpha])",
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
        "if last_spec is spec and",
        "if last_spec == spec and",
    ),
    Mutant(
        "channels-cache-read-per-field",
        "channels.py",
        "    last_spec, last_n, branches = _LAST_BRANCHES\n"
        "    if last_spec is spec and last_n == n:\n"
        "        return branches\n",
        # the later ``del branches`` needs the local
        "    if _LAST_BRANCHES[0] is spec and _LAST_BRANCHES[1] == n:\n"
        "        return _LAST_BRANCHES[2]\n"
        "    branches = None\n",
    ),
    Mutant(
        "channels-probability-one-rejected",
        "channels.py",
        "elif not 0 <= p <= 1:",
        "elif not 0 <= p < 1:",
    ),
    Mutant(
        "analytic-depolarizing-slope",
        "analytic.py",
        "return (12 * t + 9) / 2",
        "return (12 * t + 8) / 2",
    ),
    Mutant(
        "analytic-depolarizing-slope-not-halved",
        "analytic.py",
        "return (12 * t + 9) / 2",
        "return 12 * t + 9",
    ),
    Mutant(
        "analytic-bitflip-cross-coefficient",
        "analytic.py",
        "return 9 - 14 * t - 8 * cross",
        "return 9 - 14 * t - 4 * cross",
    ),
    Mutant(
        "analytic-bitflip-base-one",
        "analytic.py",
        "base = 1 if kind is NoiseKind.DEPOLARIZING else 2",
        "base = 1 if kind is not NoiseKind.PHASE_FLIP else 2",
    ),
    Mutant(
        "analytic-phaseflip-base-one",
        "analytic.py",
        "base = 1 if kind is NoiseKind.DEPOLARIZING else 2",
        "base = 1 if kind is not NoiseKind.BIT_FLIP else 2",
    ),
    Mutant(
        "analytic-bitflip-t-c-rows-swapped",
        "analytic.py",
        "(swap + coherence) * 2, coherence_swap)",
        "coherence_swap, (swap + coherence) * 2)",
    ),
    Mutant(
        "analytic-substitution-sign",
        "analytic.py",
        "p_of_x = (PolyP.ONE - P) * Fraction(1, base)",
        "p_of_x = (PolyP.ONE + P) * Fraction(1, base)",
    ),
    Mutant(
        "analytic-bitflip-scale-two",
        "analytic.py",
        "return tuple(u * 4 for u in",
        "return tuple(u * 2 for u in",
    ),
    Mutant(
        "analytic-t-row-drops-swap",
        "analytic.py",
        "(swap + coherence) * 2",
        "coherence * 2",
    ),
    Mutant(
        "analytic-depolarizing-offset-sign",
        "analytic.py",
        "mixing = (PolyP.ONE - self.q9) * Fraction(1, 2)",
        "mixing = (self.q9 - PolyP.ONE) * Fraction(1, 2)",
    ),
    Mutant(
        "analytic-depolarizing-eighth-power",
        "analytic.py",
        "q9=(PolyP.ONE - P) ** 9,",
        "q9=(PolyP.ONE - P) ** 8,",
    ),
    Mutant(
        "analytic-real-form-drops-n",
        "analytic.py",
        "acc[1] * (aa + dd)",
        "acc[1]",
    ),
    # the four below freeze or fork the published record's one binding; the
    # first is seen only by a table built from a record other than the
    # module's current one
    Mutant(
        "analytic-table-reads-module-record",
        "analytic.py",
        "coherence_swap = published.state(kind)",
        "coherence_swap = PUBLISHED.state(kind)",
    ),
    Mutant(
        "analytic-closed-form-record-bound-at-def",
        "analytic.py",
        "def fidelity_closed(input_state: InputState, noise: ChannelSpec):",
        "def fidelity_closed(input_state: InputState, noise: ChannelSpec, PUBLISHED=PUBLISHED):",
    ),
    Mutant(
        "verify-kind-reads-package-re-export",
        "verify.py",
        "    published = analytic.PUBLISHED\n",
        "    from . import PUBLISHED as published\n",
    ),
    Mutant(
        "verify-targets-read-package-re-export",
        "verify.py",
        "    keep, swap, offset, coherence, coherence_swap = analytic.PUBLISHED.state(kind)\n",
        "    from . import PUBLISHED\n"
        "    keep, swap, offset, coherence, coherence_swap = PUBLISHED.state(kind)\n",
    ),
    Mutant(
        "analytic-table-drops-constant",
        "analytic.py",
        "out[: row.degree + 1] = [float(c.re) for c in row.coefficients]",
        "out[1 : row.degree + 1] = [float(c.re) for c in row.coefficients[1:]]",
    ),
    Mutant(
        "cli-trace-prints-negative-zero",
        "cli.py",
        "EIGENVALUE_DIGITS) + 0.0",
        "EIGENVALUE_DIGITS)",
    ),
    Mutant(
        "cli-trace-memo-keyed-by-value",
        "cli.py",
        "keys = [raw[k : k + 16] for k in range(0, len(raw), 16)]",
        "keys = stack.entries.ravel().tolist() + last.entries.ravel().tolist()",
    ),
    Mutant(
        "cli-trace-stack-max-eigenvalue",
        "cli.py",
        "hermitian_eigenvalues(stack)[:, 0]",
        "hermitian_eigenvalues(stack)[:, -1]",
    ),
    Mutant(
        "cli-trace-stack-drops-stage",
        "cli.py",
        "Operator([rho.entries for rho in cubes])",
        "Operator([rho.entries for rho in cubes[1:]])",
    ),
    Mutant(
        "cli-sweep-csv-precision",
        "cli.py",
        'row = "%.17g," + state_label(state.alpha, state.beta) + ",%.17g"',
        'row = "%.16g," + state_label(state.alpha, state.beta) + ",%.17g"',
    ),
    Mutant(
        "cli-grid-end-computed",
        "cli.py",
        "range(steps - 1)]\n        grid.append(p_end)\n",
        "range(steps)]\n",
    ),
    Mutant(
        "frozen-setattr-assigns",
        "linalg.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
    ),
    Mutant(
        "frozen-delattr-deletes",
        "linalg.py",
        'raise AttributeError(f"cannot delete field {name!r}")',
        "object.__delattr__(self, name)",
    ),
    Mutant(
        "frozen-eq-drops-class-check",
        "linalg.py",
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, _Frozen):",
    ),
    Mutant(
        "exact-state-compares-by-value",
        "exact.py",
        "    __eq__, __hash__ = object.__eq__, object.__hash__\n",
        "",
    ),
    Mutant(
        "cli-sweep-config-compares-chunks",
        "cli.py",
        '    __slots__ = _fields + ("chunks",)',
        '    __slots__ = _fields = _fields + ("chunks",)',
    ),
    Mutant(
        "analytic-table-hash-omits-field",
        "analytic.py",
        'object.__setattr__(self, "_hash", hash(self._values()))',
        'object.__setattr__(self, "_hash", hash(self._values()[:-1]))',
    ),
    Mutant(
        "guard-unused-public-name",
        "charts.py",
        "def _escape(text: str) -> str:",
        "def escape_all(texts):\n    return [_escape(t) for t in texts]\n\n\n"
        "def _escape(text: str) -> str:",
    ),
    Mutant(
        "cli-output-ignores-out",
        "cli.py",
        "    if path is None:\n        sys.stdout.write(text)",
        "    if True:\n        sys.stdout.write(text)",
    ),
    Mutant(
        "cli-write-error-exits-0",
        "cli.py",
        'file=sys.stderr)\n        return 1\n    return 0',
        'file=sys.stderr)\n        return 0\n    return 0',
    ),
    Mutant(
        "cli-write-truncates-to-zero",
        "cli.py",
        "flags & ~os.O_TRUNC, 0o666",
        "flags, 0o666",
    ),
    Mutant(
        "cli-write-keeps-stale-tail",
        "cli.py",
        "                fh.truncate()",
        "                pass",
    ),
    Mutant(
        "cli-write-cuts-devices",
        "cli.py",
        "if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):",
        "if True:",
    ),
    Mutant(
        "cli-empty-out-accepted",
        "cli.py",
        'if args.out == "":',
        "if False:",
    ),
    Mutant(
        "cli-verify-default-base",
        "cli.py",
        'default="verification_report",',
        'default="verification-report",',
    ),
    Mutant(
        "cli-parser-rebuilt-per-call",
        "cli.py",
        "@functools.cache\ndef build_parser()",
        "def build_parser()",
    ),
    Mutant(
        "cli-dispatch-bound-at-build",
        "cli.py",
        "    return parser\n\n\n"
        "def main(argv=None) -> int:\n"
        "    # looked up on each call, so that a patched module binding takes effect\n"
        "    commands = dict(sweep=cmd_sweep, trace=cmd_trace, verify=cmd_verify, curves=cmd_curves)\n"
        "    args = build_parser().parse_args(argv)\n",
        "    parser.commands = dict(\n"
        "        sweep=cmd_sweep, trace=cmd_trace, verify=cmd_verify, curves=cmd_curves\n"
        "    )\n"
        "    return parser\n\n\n"
        "def main(argv=None) -> int:\n"
        "    commands = build_parser().commands\n"
        "    args = build_parser().parse_args(argv)\n",
    ),
    Mutant(
        "charts-text-drops-transform",
        "charts.py",
        'font-family="sans-serif"{transform}>',
        'font-family="sans-serif">',
    ),
    Mutant(
        "charts-line-fixed-width",
        "charts.py",
        'stroke-width="{width}"/>',
        'stroke-width="1"/>',
    ),
    Mutant(
        "teleport-exact-norm-drops-beta",
        "teleport.py",
        "return PolyP([alpha]).norm_sq() + PolyP([beta]).norm_sq()",
        "return PolyP([alpha]).norm_sq()",
    ),
    Mutant(
        "cli-grid-flag-ignored",
        "cli.py",
        'names = ("p_start", "p_end", "steps", "columns")',
        'names = ("p_start", "p_end", "columns")',
    ),
    Mutant(
        "cli-default-steps",
        "cli.py",
        "steps: int = 101",
        "steps: int = 100",
    ),
    Mutant(
        "charts-x-label",
        "charts.py",
        'X_LABEL = "noise probability p"',
        'X_LABEL = "noise probability"',
    ),
    Mutant(
        "cli-normalize-ignored",
        "cli.py",
        "make = InputState.normalized if args.normalize else InputState",
        "make = InputState",
    ),
    Mutant(
        "verify-fallback-after-marginal-targets",
        "verify.py",
        "    published_mismatch = any(t.status is TargetStatus.MISMATCH for t in targets)\n"
        "    targets += verify_marginal_factorization()\n",
        "    targets += verify_marginal_factorization()\n"
        "    published_mismatch = any(t.status is TargetStatus.MISMATCH for t in targets)\n",
    ),
    Mutant(
        "verify-alternate-note-names-default",
        "verify.py",
        'f"assignment {matched.describe()}; targets',
        'f"assignment {DEFAULT_ASSIGNMENT.describe()}; targets',
    ),
    Mutant(
        "guard-public-method-named-like-a-local",
        "exact.py",
        "    def norm_sq(self) -> Fraction:",
        "    def den(self) -> int:\n        return self._den\n\n    def norm_sq(self) -> Fraction:",
    ),
    Mutant(
        "exact-coerce-drops-denominator",
        "exact.py",
        "return PolyP._raw([num], [0], den)",
        "return PolyP._raw([num], [0], 1)",
    ),
    Mutant(
        "exact-coherence-swap-reversed",
        "exact.py",
        "coh, coh_swap = (lx + ly) * _HALF, (lx - ly) * _HALF",
        "coh, coh_swap = (lx + ly) * _HALF, (ly - lx) * _HALF",
    ),
    Mutant(
        "exact-keep-flip-exchanged",
        "exact.py",
        "keep, flip = (1 + lz) * _HALF, (1 - lz) * _HALF",
        "flip, keep = (1 + lz) * _HALF, (1 - lz) * _HALF",
    ),
    Mutant(
        "exact-qubit-one-check-dropped",
        "exact.py",
        "    if on_input != label:\n"
        '        raise ValueError(f"{label} pulls back to {on_input} on qubit 1")\n',
        "",
    ),
    Mutant(
        "verify-marginal-form-without-layer",
        "verify.py",
        "reduce(tensor, [apply_layer(spec, m) for m in _marginals(rho)])",
        "reduce(tensor, _marginals(rho))",
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
