"""Command-line surface: sweeps, stage traces, verification, charts.

Amplitude grammar: each of alpha, beta is `re` or `re+imi` / `re-imi`,
e.g. `0.6`, `0.6+0.8i`, `0-1i`.  Pairs are comma separated, multiple states
are semicolon separated: `--states "1,0;0.6,0.8"`.  Unnormalized inputs are
rejected unless --normalize is given, so reproduction runs cannot silently
mask a typo in the amplitudes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
from collections import Counter

from .analytic import fidelity_closed, fidelity_linear
from .channels import ChannelSpec, NoiseKind
from .charts import render_line_chart
from .linalg import Operator, _Frozen, hermitian_eigenvalues
from .teleport import InputState, run_stages, teleport_fidelity
from .verify import run_verification

DEFAULT_STATES = ((1.0, 0.0), (2**-0.5, 2**-0.5), (0.6, 0.8))
ALL_COLUMNS = ("numeric", "analytic", "linear")
# grid points per batched pipeline run; bounds the memory of a long sweep
BATCH_POINTS = 1024
# largest grid a sweep or chart accepts: the grid, its text and the CSV are
# built whole in memory
MAX_STEPS = 100_000
# decimals of the minimum eigenvalue a trace prints.  LAPACK's eigenvalues
# carry rounding noise that differs between kernels (a zero eigenvalue reads
# 0 on one, -1.5e-17 on another; the error bound for a trace-one 8x8
# operator is about 8 x 2.2e-16), so they are printed at 1e-12, three orders
# above it, with a -0 read as 0.
EIGENVALUE_DIGITS = 12


def parse_amplitude(token: str) -> complex:
    """Parse one amplitude. Grammar: `re` or `re+imi` / `re-imi`."""
    s = token.strip()
    if not s:
        raise ValueError("empty amplitude token")
    if s.endswith("i"):
        body = s[:-1]
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                try:
                    return complex(float(body[:k]), float(body[k:]))
                except ValueError:
                    break
        raise ValueError(f"cannot parse amplitude {token!r}")
    try:
        return complex(float(s), 0.0)
    except ValueError:
        raise ValueError(f"cannot parse amplitude {token!r}") from None


def format_amplitude(z: complex) -> str:
    """Canonical form of an amplitude; format(parse(s)) is idempotent."""
    z = complex(z)
    re_s = repr(z.real)
    if z.imag == 0:
        return re_s
    sign = "+" if z.imag >= 0 else "-"
    return f"{re_s}{sign}{repr(abs(z.imag))}i"


def state_label(alpha: complex, beta: complex) -> str:
    # semicolon keeps the label a single unquoted CSV field
    return f"({format_amplitude(alpha)};{format_amplitude(beta)})"


def parse_states(text: str) -> list[tuple[complex, complex]]:
    states = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"state {chunk!r} is not an `alpha,beta` pair")
        states.append((parse_amplitude(parts[0]), parse_amplitude(parts[1])))
    return states


class SweepConfig(_Frozen):
    #: ``states`` are checked where they enter; the config checks only their type
    _fields = ("kind", "states", "p_start", "p_end", "steps", "columns")
    #: ``chunks``, the grid as checked specs of at most BATCH_POINTS points each,
    #: built once and shared by every state and column, is no field
    __slots__ = _fields + ("chunks",)

    def __init__(self, kind: NoiseKind, states: tuple[InputState, ...], p_start: float = 0.0,
                 p_end: float = 1.0, steps: int = 101, columns: tuple[str, ...] = ALL_COLUMNS):
        for name, value in (("p_start", p_start), ("p_end", p_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if not p_start <= p_end:
            raise ValueError(f"p_start {p_start} exceeds p_end {p_end}")
        if steps < 2:
            raise ValueError(f"steps must be at least 2, got {steps}")
        if steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}, got {steps}")
        for col in columns:
            if col not in ALL_COLUMNS:
                raise ValueError(f"unknown column {col!r}")
        for state in states:
            if not isinstance(state, InputState):
                raise ValueError(f"state {state!r} is not an InputState")
        # the ends are the values given: a computed last point can round
        # above p_end, and so above 1
        span = p_end - p_start
        grid = [p_start + span * i / (steps - 1) for i in range(steps - 1)]
        grid.append(p_end)
        self._init(kind, states, p_start, p_end, steps, columns)
        # in grid order, so ChannelSpec names the first bad grid point
        object.__setattr__(self, "chunks", tuple(
            ChannelSpec(kind, grid[start : start + BATCH_POINTS])
            for start in range(0, len(grid), BATCH_POINTS)
        ))

    def grid(self) -> list[float]:
        return [p for chunk in self.chunks for p in chunk.p]


def _grid_columns(
    state: InputState, chunks: tuple[ChannelSpec, ...], functions: list
) -> list[list[float]]:
    """Each ``function(state, noise)`` at every grid point, one list per
    function, with one call per chunk of the grid."""
    columns: list[list[float]] = [[] for _ in functions]
    for batch in chunks:
        for column, function in zip(columns, functions):
            column += function(state, batch).tolist()
    return columns


def run_sweep(config: SweepConfig) -> str:
    """Compute the sweep as CSV text, rows ordered by (state, p)."""
    # looked up on each call, so that a patched module binding takes effect
    by_name = dict(numeric=teleport_fidelity, analytic=fidelity_closed, linear=fidelity_linear)
    names = [name for name in ALL_COLUMNS if name in config.columns]
    functions = [by_name[name] for name in names]
    with_diff = {"numeric", "analytic"} <= set(names)
    header = ["p", "state_label"] + [f"f_{name}" for name in names] + ["abs_diff"] * with_diff
    lines = [",".join(header)]
    grid = config.grid()
    for state in config.states:
        # one format call per row: p, the label (float reprs, so no `%`),
        # then the value columns
        row = "%.17g," + state_label(state.alpha, state.beta) + ",%.17g" * (len(header) - 2)
        columns = _grid_columns(state, config.chunks, functions)
        if with_diff:
            # numeric and analytic come first, in ALL_COLUMNS order
            columns.append([abs(f_num - f_ana) for f_num, f_ana in zip(*columns[:2])])
        lines += map(row.__mod__, zip(grid, *columns))
    return "\n".join(lines) + "\n"


def _states_from_args(args) -> list[InputState]:
    """The checked input states of the state flags; an unnormalized pair
    raises with its deviation unless --normalize rescales it."""
    if args.states is not None:
        if args.alpha is not None or args.beta is not None:
            raise ValueError("--states cannot be combined with --alpha or --beta")
        pairs = parse_states(args.states)
    elif args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        pairs = [(parse_amplitude(args.alpha), parse_amplitude(args.beta))]
    else:
        pairs = [(complex(a), complex(b)) for a, b in DEFAULT_STATES]
    make = InputState.normalized if args.normalize else InputState
    return [make(a, b) for a, b in pairs]


def _sweep_config(args) -> SweepConfig:
    """The config of `sweep` or `curves` flags; a grid or column flag that
    is not given keeps the config's default."""
    names = ("p_start", "p_end", "steps", "columns")
    given = {name: value for name, value in vars(args).items() if name in names}
    return SweepConfig(NoiseKind(args.noise), tuple(_states_from_args(args)), **given)


def _open_untruncated(path: str, flags: int) -> int:
    """``open``'s own flags and mode, less O_TRUNC.  On ext4, truncating to
    zero a file whose blocks are allocated stalls for some 40-70 ms, and
    the rewrite allocates them again at close, so every rewrite stalls."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_out(path: str | None, text: str) -> int:
    """Write ``text`` to the file ``path``, or to stdout when it is None;
    a file that cannot be written is reported, with exit status 1.  An
    existing file is overwritten in place, and a regular one is then cut
    to the length written; after a failed write its contents are
    undefined."""
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", newline="\n", opener=_open_untruncated) as fh:
            fh.write(text)
            # a device, FIFO or pipe has no length to cut
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    return _write_out(args.out, run_sweep(_sweep_config(args)))


def cmd_trace(args) -> int:
    states = _states_from_args(args)
    if len(states) != 1:
        raise ValueError("trace works on exactly one input state")
    (state,) = states
    stages = run_stages(state, ChannelSpec(NoiseKind(args.noise), args.p))
    *cubes, last = stages.values()
    # the nine three-qubit stages as one stack: one eigensolver call and one
    # trace for all nine, with the bits of the stage-by-stage calls
    stack = Operator([rho.entries for rho in cubes])
    min_eigs = hermitian_eigenvalues(stack)[:, 0].tolist() + [hermitian_eigenvalues(last)[0]]
    traces = stack.trace().real.tolist() + [last.trace().real]
    # each distinct entry formatted once, as a Python complex (faster than
    # numpy's), keyed by its 16 bytes: -0.0 == 0.0, but %.12g prints them apart
    raw = stack.entries.tobytes() + last.entries.tobytes()
    keys = [raw[k : k + 16] for k in range(0, len(raw), 16)]
    values = dict(zip(keys, stack.entries.ravel().tolist() + last.entries.ravel().tolist()))
    cells = {key: "%32s" % ("%.12g%+.12gi" % (z.real, z.imag)) for key, z in values.items()}
    state_text = state_label(state.alpha, state.beta)
    lines = [f"stage trace: noise={args.noise} p={args.p:.17g} state={state_text}"]
    offset = 0
    for (label, rho), trace, min_eig in zip(stages.items(), traces, min_eigs):
        lines.append("")
        lines.append(f"{label} ({rho.num_qubits} qubit{'s' if rho.num_qubits > 1 else ''})")
        for k in range(offset, offset + rho.dim**2, rho.dim):
            lines.append("  " + "  ".join([cells[key] for key in keys[k : k + rho.dim]]))
        offset += rho.dim**2
        min_eig = round(float(min_eig), EIGENVALUE_DIGITS) + 0.0
        lines.append("  trace = %.12g, min eigenvalue = %.12g" % (trace, min_eig))
    return _write_out(args.out, "\n".join(lines) + "\n")


def cmd_verify(args) -> int:
    report = run_verification()
    status = _write_out(args.out + ".txt", report.to_text())
    status = status or _write_out(args.out + ".tsv", report.to_machine())
    if status:
        return status
    counts = Counter(t.status.value for t in report.targets)
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"verification: {summary}; report written to {args.out}.txt / {args.out}.tsv")
    return 1 if report.has_mismatch else 0


def cmd_curves(args) -> int:
    config = _sweep_config(args)
    grid = config.grid()
    series = []
    # the numeric fidelity only: curves has no --columns flag and reads none
    for state in config.states:
        (fidelities,) = _grid_columns(state, config.chunks, [teleport_fidelity])
        series.append((state_label(state.alpha, state.beta), list(zip(grid, fidelities))))
    svg = render_line_chart(f"teleportation fidelity under {config.kind.value} noise", series)
    return _write_out(args.out, svg)


def _add_state_flags(sp) -> None:
    sp.add_argument("--alpha", help="input amplitude for |0>")
    sp.add_argument("--beta", help="input amplitude for |1>")
    sp.add_argument(
        "--states",
        help='semicolon-separated list of alpha,beta pairs, e.g. "1,0;0.6,0.8"',
    )
    sp.add_argument(
        "--normalize",
        action="store_true",
        help="rescale the given amplitudes to unit norm instead of rejecting them",
    )


def _add_grid_flags(sp) -> None:
    # a flag not given is absent from the namespace: SweepConfig's default holds
    sp.add_argument("--p-start", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--p-end", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--steps", type=int, default=argparse.SUPPRESS)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleportsim",
        description="density-matrix simulation and exact verification of noisy teleportation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="fidelity-vs-p sweep as CSV")
    sp.add_argument("--noise", required=True, choices=[k.value for k in NoiseKind])
    _add_state_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument(
        "--columns",
        type=lambda text: tuple(text.split(",")),
        default=argparse.SUPPRESS,
        help="comma-separated subset of numeric,analytic,linear",
    )
    sp.add_argument("--out", help="output CSV path (default: stdout)")

    sp = sub.add_parser("trace", help="dump the ten intermediate states")
    sp.add_argument("--noise", required=True, choices=[k.value for k in NoiseKind])
    sp.add_argument("--p", type=float, required=True)
    _add_state_flags(sp)
    sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser(
        "verify", help="compare derived polynomials against the published forms"
    )
    sp.add_argument(
        "--out",
        default="verification_report",
        help="report base path; writes BASE.txt and BASE.tsv (default: %(default)s)",
    )

    sp = sub.add_parser("curves", help="fidelity-vs-p chart as SVG")
    sp.add_argument("--noise", required=True, choices=[k.value for k in NoiseKind])
    _add_state_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--out", default="curves.svg", help="output SVG path")

    return parser


def main(argv=None) -> int:
    # looked up on each call, so that a patched module binding takes effect
    commands = dict(sweep=cmd_sweep, trace=cmd_trace, verify=cmd_verify, curves=cmd_curves)
    args = build_parser().parse_args(argv)
    # every command has --out, and an empty one names no file
    if args.out == "":
        print("error: --out is empty", file=sys.stderr)
        return 2
    try:
        return commands[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
