"""The three benchmark workloads: seeded ops, how each runs, how each is checked.

An op is one call a user would make.  ``execute`` is the timed part and
calls only teleportsim's public entry points, in process; ``check``
compares the op's output with :mod:`oracle` outside the timed interval and
returns a list of problems (empty when the output is right).

Ops come in blocks of fixed composition whose order and inputs the seed
draws.  A run always ends on a block boundary, so every run of a workload
has the same op mix, and per-op counts repeat exactly from run to run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle
from teleportsim import cli, exact, teleport
from teleportsim.channels import NoiseKind

KINDS = ("depolarizing", "bitflip", "phaseflip")
FLOAT_TOL = 1e-12
TRACE_TOL = 1e-9  # `trace` prints entries with 12 significant digits


@dataclass(frozen=True)
class Op:
    label: str  # sweep, curves, trace or verify
    kind: str  # noise kind; "" for verify, which covers all three
    argv: tuple[str, ...]
    states: tuple  # (alpha, beta) pairs as the op's inputs
    p: float | None = None
    out: str | None = None  # file the command writes, if any

    @property
    def points(self) -> int:
        """Fidelity values (or exact output states) the check compares."""
        if self.label in ("sweep", "curves"):
            return len(self.states) * oracle.GRID_STEPS
        return len(self.states)


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


# --- seeded inputs -------------------------------------------------------------


def random_state(rng: random.Random) -> tuple[complex, complex]:
    """A Haar-random normalized qubit state."""
    a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def format_amplitude(z: complex) -> str:
    """`re+imi` text that parses back to exactly ``z``."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_amplitude(text: str) -> complex:
    """Inverse of :func:`format_amplitude`; also reads a bare real number."""
    if not text.endswith("i"):
        return complex(float(text), 0.0)
    body = text[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return complex(float(body[:k]), float(body[k:]))
    raise ValueError(f"unparsable amplitude {text!r}")


def states_flag(states) -> str:
    pairs = ";".join(f"{format_amplitude(a)},{format_amplitude(b)}" for a, b in states)
    return f"--states={pairs}"


_PHASES = ((1, 0), (0, 1), (-1, 0), (0, -1))  # 1, i, -1, -i


def pythagorean_state(rng: random.Random) -> tuple[tuple, tuple]:
    """Exact amplitudes (a/c)w1, (b/c)w2 from a primitive triple a^2+b^2=c^2.

    Each amplitude is a (re, im) Fraction pair; w1, w2 are drawn from
    {1, i, -1, -i}.
    """
    while True:
        m = rng.randint(2, 12)
        n = rng.randint(1, m - 1)
        if (m - n) % 2 and math.gcd(m, n) == 1:
            break
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if rng.random() < 0.5:
        a, b = b, a
    amps = []
    for mag in (a, b):
        wr, wi = rng.choice(_PHASES)
        amps.append((Fraction(mag * wr, c), Fraction(mag * wi, c)))
    return tuple(amps)


# --- workloads -------------------------------------------------------------------


class Workload:
    name = ""

    # transfer-map cache statistics, which only exact_verify collects
    cache_hits = 0
    cache_misses = 0

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def harvest_cache(self) -> None:
        pass

    def block(self) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> list[str]:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


class FloatSweep(Workload):
    """`sweep` and `curves` over the default 101-point p grid."""

    name = "float_sweep"
    # per noise kind: sweeps of 1, 2 and 3 states and one 3-state chart, so
    # one op in four is `curves`.  The median op is then one of the two
    # flip-channel charts, which cost nearly the same; with 2-state charts it
    # fell in a 20% gap between two sweeps, and op_ref.p50 jumped across it
    # from run to run
    SWEEP_STATES = (1, 2, 3)
    CURVES_STATES = 3

    def block(self) -> list[Op]:
        rng = self.rng
        ops = []
        for kind in KINDS:
            for n in self.SWEEP_STATES:
                states = tuple(random_state(rng) for _ in range(n))
                argv = ("sweep", "--noise", kind, states_flag(states))
                ops.append(Op("sweep", kind, argv, states))
            states = tuple(random_state(rng) for _ in range(self.CURVES_STATES))
            out = str(self.workdir / "curves.svg")
            argv = ("curves", "--noise", kind, states_flag(states), "--out", out)
            ops.append(Op("curves", kind, argv, states, out=out))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        return _cli(op.argv)

    def check(self, op: Op, output) -> list[str]:
        rc, text = output
        if rc != 0:
            return [f"exit status {rc}"]
        if op.label == "sweep":
            return check_sweep_csv(op, text)
        return check_curves_svg(op, Path(op.out).read_text())

    def sizes(self) -> dict:
        return {
            "grid_points": oracle.GRID_STEPS,
            "states_per_op": {"sweep": list(self.SWEEP_STATES), "curves": self.CURVES_STATES},
            "block": {"sweep": 3 * len(self.SWEEP_STATES), "curves": 3},
        }


class PointTrace(Workload):
    """`trace` at one seeded (kind, p, state): the batch-size-1 latency path."""

    name = "point_trace"

    def block(self) -> list[Op]:
        rng = self.rng
        ops = []
        for kind in KINDS:
            state = random_state(rng)
            p = rng.random()
            argv = (
                "trace", "--noise", kind, f"--p={p!r}",
                f"--alpha={format_amplitude(state[0])}", f"--beta={format_amplitude(state[1])}",
            )
            ops.append(Op("trace", kind, argv, (state,), p=p))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        return _cli(op.argv)

    def check(self, op: Op, output) -> list[str]:
        rc, text = output
        if rc != 0:
            return [f"exit status {rc}"]
        return check_trace_text(op, text)

    def sizes(self) -> dict:
        return {"grid_points": 1, "states_per_op": 1, "block": {"trace": len(KINDS)}}


class ExactVerify(Workload):
    """Cold `verify` plus one seeded exact symbolic run per noise kind."""

    name = "exact_verify"

    def harvest_cache(self) -> None:
        """Add the transfer-map cache's statistics to the totals, then clear it.

        Clearing makes every verify cold, as in a fresh CLI process.
        """
        info = exact.extract_transfer_map.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        exact.extract_transfer_map.cache_clear()

    def block(self) -> list[Op]:
        states = tuple(pythagorean_state(self.rng) for _ in KINDS)
        out = str(self.workdir / "verification_report")
        return [Op("verify", "", ("verify", "--out", out), states, out=out)]

    def execute(self, op: Op):
        self.harvest_cache()
        rc, text = _cli(op.argv)
        G = exact.GaussianRational
        rhos = [
            exact.run_pipeline_symbolic(
                teleport.InputState(G(*alpha), G(*beta)), NoiseKind(kind)
            )
            for kind, (alpha, beta) in zip(KINDS, op.states)
        ]
        return rc, text, rhos

    def check(self, op: Op, output) -> list[str]:
        rc, _, rhos = output
        problems = []
        if rc != oracle.VERIFY_EXIT_STATUS:
            problems.append(f"verify exit status {rc}, expected {oracle.VERIFY_EXIT_STATUS}")
        problems += check_verify_tsv(Path(op.out + ".tsv").read_text())
        for kind, (alpha, beta), rho in zip(KINDS, op.states, rhos):
            problems += check_symbolic_state(kind, alpha, beta, rho)
        return problems

    def sizes(self) -> dict:
        return {
            "grid_points": 0,
            "states_per_op": {"symbolic": len(KINDS)},
            "block": {"verify": 1},
            "verify_targets": len(oracle.VERIFY_STATUSES),
        }


WORKLOADS = {w.name: w for w in (FloatSweep, PointTrace, ExactVerify)}


# --- output checks -----------------------------------------------------------------

SWEEP_HEADER = "p,state_label,f_numeric,f_analytic,f_linear,abs_diff"


def check_sweep_csv(op: Op, text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep header {lines[:1]!r}"]
    grid = oracle.grid()
    rows = lines[1:]
    if len(rows) != len(op.states) * len(grid):
        return [f"sweep has {len(rows)} rows, expected {len(op.states) * len(grid)}"]
    problems = []
    for s, (alpha, beta) in enumerate(op.states):
        for i, p in enumerate(grid):
            fields = rows[s * len(grid) + i].split(",")
            label = fields[1].strip("()").split(";")
            if float(fields[0]) != p or [parse_amplitude(t) for t in label] != [alpha, beta]:
                problems.append(f"row {s * len(grid) + i} has p/state {fields[:2]}")
                continue
            want = oracle.fidelity(op.kind, alpha, beta, p)
            if not abs(float(fields[2]) - want) <= FLOAT_TOL:
                problems.append(f"f_numeric {fields[2]} at p={p}, oracle {want!r}")
    return problems


# Plot geometry of the `curves` SVG: x in [0, 1] maps to [70, 650] and
# y in [0, 1] to [490, 50]; coordinates are printed with two decimals.
_PLOT_X0, _PLOT_X1, _PLOT_Y0, _PLOT_Y1 = 70.0, 650.0, 490.0, 50.0
_PIXEL_TOL = 0.006


def check_curves_svg(op: Op, svg: str) -> list[str]:
    lines = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    if len(lines) != len(op.states):
        return [f"curves has {len(lines)} polylines, expected {len(op.states)}"]
    problems = []
    grid = oracle.grid()
    for (alpha, beta), coords in zip(op.states, lines):
        points = [tuple(map(float, xy.split(","))) for xy in coords.split()]
        if len(points) != len(grid):
            problems.append(f"curves polyline has {len(points)} points, expected {len(grid)}")
            continue
        for p, (x, y) in zip(grid, points):
            f = oracle.fidelity(op.kind, alpha, beta, p)
            want_x = _PLOT_X0 + p * (_PLOT_X1 - _PLOT_X0)
            want_y = _PLOT_Y0 + f * (_PLOT_Y1 - _PLOT_Y0)
            if abs(x - want_x) > _PIXEL_TOL or abs(y - want_y) > _PIXEL_TOL:
                problems.append(f"curves point ({x}, {y}) at p={p}, oracle ({want_x}, {want_y})")
    return problems


_STAGE_HEAD = re.compile(r"(rho\d+) \((\d+) qubits?\)")
_STAGE_TAIL = re.compile(r"  trace = (\S+), min eigenvalue = (\S+)")


def check_trace_text(op: Op, text: str) -> list[str]:
    """Every stage has trace 1 and no eigenvalue below -1e-9; rho10 has the oracle fidelity."""
    blocks = text.rstrip("\n").split("\n\n")
    if not blocks[0].startswith(f"stage trace: noise={op.kind} "):
        return [f"trace header {blocks[0]!r}"]
    if len(blocks) != 11:
        return [f"trace has {len(blocks) - 1} stages, expected 10"]
    problems = []
    rhos = []
    for k, block in enumerate(blocks[1:], start=1):
        lines = block.split("\n")
        head, tail = _STAGE_HEAD.fullmatch(lines[0]), _STAGE_TAIL.fullmatch(lines[-1])
        qubits = 1 if k == 10 else 3
        if not head or head.group(1) != f"rho{k}" or int(head.group(2)) != qubits or not tail:
            return [f"stage {k} framing {lines[0]!r} / {lines[-1]!r}"]
        # entries print as `re+imi`; Python's complex() reads them with j for i
        rho = np.array([[complex(t[:-1] + "j") for t in row.split()] for row in lines[1:-1]])
        if rho.shape != (2**qubits, 2**qubits):
            return [f"rho{k} has shape {rho.shape}"]
        rhos.append(rho)
        printed_trace, printed_eig = float(tail.group(1)), float(tail.group(2))
        if abs(printed_trace - 1) > TRACE_TOL or printed_eig < -TRACE_TOL:
            problems.append(f"rho{k} printed trace {printed_trace}, min eigenvalue {printed_eig}")
    for group in (np.stack(rhos[:9]), rhos[9][None]):
        traces = np.trace(group, axis1=1, axis2=2)
        min_eigs = np.linalg.eigvalsh((group + group.conj().transpose(0, 2, 1)) / 2)[:, 0]
        if np.any(np.abs(traces - 1) > TRACE_TOL) or np.any(min_eigs < -TRACE_TOL):
            problems.append(f"recomputed traces {traces}, min eigenvalues {min_eigs}")
    alpha, beta = op.states[0]
    psi = np.array([alpha, beta])
    f = (psi.conj() @ rhos[9] @ psi).real
    want = oracle.fidelity(op.kind, alpha, beta, op.p)
    if abs(f - want) > TRACE_TOL:
        problems.append(f"rho10 fidelity {f!r}, oracle {want!r}")
    return problems


def check_verify_tsv(tsv: str) -> list[str]:
    statuses = [row.split("\t")[1] for row in tsv.splitlines()]
    if statuses != oracle.VERIFY_STATUSES:
        return [f"verify statuses {statuses}"]
    return []


def _coefficients(poly) -> tuple[list, list]:
    """Real and imaginary coefficient lists of a PolyP, trailing zeros dropped."""
    re_part = [c.re for c in poly.coefficients]
    im_part = [c.im for c in poly.coefficients]
    return oracle.trim(re_part), oracle.trim(im_part)


def check_symbolic_state(kind: str, alpha, beta, rho) -> list[str]:
    """Every rho10 entry equals the oracle polynomial exactly.

    The fidelity polynomial <psi|rho10|psi> is then the oracle's
    (1 + lx rx^2 + ly ry^2 + lz rz^2)/2 exactly as well.
    """
    want = oracle.exact_output_state(kind, alpha, beta)
    problems = []
    for r in range(2):
        for c in range(2):
            if _coefficients(rho.entries[r, c]) != want[r][c]:
                problems.append(f"{kind} rho10[{r},{c}] = {rho.entries[r, c]}")
    return problems
