"""Command-line surface: sweeps, stage traces, verification, charts.

Amplitude grammar: each of alpha, beta is `re` or `re+imi` / `re-imi`,
e.g. `0.6`, `0.6+0.8i`, `0-1i`.  Pairs are comma separated, multiple states
are semicolon separated: `--states "1,0;0.6,0.8"`.  Unnormalized inputs are
rejected unless --normalize is given, so reproduction runs cannot silently
mask a typo in the amplitudes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import fidelity_closed, fidelity_linear
from .channels import ChannelSpec, NoiseKind
from .charts import render_line_chart
from .linalg import hermitian_eigenvalues
from .teleport import InputState, run_stages, teleport_fidelity
from .verify import run_verification

DEFAULT_STATES = ((1.0, 0.0), (2**-0.5, 2**-0.5), (0.6, 0.8))
ALL_COLUMNS = ("numeric", "analytic", "linear")
# grid points per batched pipeline run; bounds the memory of a long sweep
BATCH_POINTS = 1024


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


@dataclass(frozen=True)
class SweepConfig:
    kind: NoiseKind
    states: tuple[tuple[complex, complex], ...]
    p_start: float = 0.0
    p_end: float = 1.0
    steps: int = 101
    columns: tuple[str, ...] = ALL_COLUMNS

    def __post_init__(self):
        for name, value in (("p_start", self.p_start), ("p_end", self.p_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if not self.p_start <= self.p_end:
            raise ValueError(f"p_start {self.p_start} exceeds p_end {self.p_end}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        for col in self.columns:
            if col not in ALL_COLUMNS:
                raise ValueError(f"unknown column {col!r}")
        if self.p_start < 0 or self.p_end > 1:
            # name the grid point that a column's own check would name first
            bad = next((p for p in self.grid() if not 0 <= p <= 1), self.p_end)
            raise ValueError(f"noise probability {bad} outside [0, 1]")

    def grid(self) -> list[float]:
        span = self.p_end - self.p_start
        return [self.p_start + span * i / (self.steps - 1) for i in range(self.steps)]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _grid_fidelities(kind: NoiseKind, state: InputState, grid: list[float]) -> list[float]:
    """Pipeline fidelity at every grid point, one batched run per chunk."""
    out: list[float] = []
    for start in range(0, len(grid), BATCH_POINTS):
        batch = ChannelSpec(kind, grid[start : start + BATCH_POINTS])
        out += teleport_fidelity(state, batch).tolist()
    return out


def run_sweep(config: SweepConfig) -> str:
    """Compute the sweep as CSV text, rows ordered by (state, p)."""
    want = set(config.columns)
    header = ["p", "state_label"]
    if "numeric" in want:
        header.append("f_numeric")
    if "analytic" in want:
        header.append("f_analytic")
    if "linear" in want:
        header.append("f_linear")
    with_diff = {"numeric", "analytic"} <= want
    if with_diff:
        header.append("abs_diff")
    lines = [",".join(header)]
    grid = config.grid()
    p_grid = np.array(grid)
    p_text = [_fmt(p) for p in grid]
    for alpha, beta in config.states:
        label = state_label(alpha, beta)
        state = InputState(alpha, beta)
        columns = []
        if "numeric" in want:
            numeric = _grid_fidelities(config.kind, state, grid)
            columns.append(numeric)
        if "analytic" in want:
            analytic = fidelity_closed(config.kind, state, p_grid).tolist()
            columns.append(analytic)
        if "linear" in want:
            columns.append(fidelity_linear(config.kind, state, p_grid).tolist())
        if with_diff:
            columns.append([abs(f_num - f_ana) for f_num, f_ana in zip(numeric, analytic)])
        for p, *values in zip(p_text, *columns):
            lines.append(",".join([p, label, *map(_fmt, values)]))
    return "\n".join(lines) + "\n"


def _write_or_fail(path: str, text: str) -> int:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    return 0


def _states_from_args(args) -> list[tuple[complex, complex]]:
    if args.states is not None:
        if args.alpha is not None or args.beta is not None:
            raise ValueError("--states cannot be combined with --alpha or --beta")
        states = parse_states(args.states)
    elif args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        states = [(parse_amplitude(args.alpha), parse_amplitude(args.beta))]
    else:
        states = [(complex(a), complex(b)) for a, b in DEFAULT_STATES]
    out = []
    for a, b in states:
        if args.normalize:
            st = InputState.normalized(a, b)
            out.append((complex(st.alpha), complex(st.beta)))
        else:
            InputState(a, b)  # norm check; raises with the deviation
            out.append((a, b))
    return out


def cmd_sweep(args) -> int:
    config = SweepConfig(
        kind=NoiseKind(args.noise),
        states=tuple(_states_from_args(args)),
        p_start=args.p_start,
        p_end=args.p_end,
        steps=args.steps,
        columns=tuple(args.columns.split(",")),
    )
    csv_text = run_sweep(config)
    if args.out:
        return _write_or_fail(args.out, csv_text)
    sys.stdout.write(csv_text)
    return 0


def _format_entry(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def cmd_trace(args) -> int:
    states = _states_from_args(args)
    if len(states) != 1:
        raise ValueError("trace works on exactly one input state")
    alpha, beta = states[0]
    state = InputState(alpha, beta)
    stages = run_stages(state, ChannelSpec(NoiseKind(args.noise), args.p))
    lines = [
        f"stage trace: noise={args.noise} p={_fmt(args.p)} "
        f"state={state_label(alpha, beta)}"
    ]
    for label, rho in stages.items():
        lines.append("")
        lines.append(f"{label} ({rho.num_qubits} qubit{'s' if rho.num_qubits > 1 else ''})")
        # Python complexes format to the same text as numpy's, and faster
        for row in rho.entries.tolist():
            lines.append("  " + "  ".join(f"{_format_entry(z):>32}" for z in row))
        tr = rho.trace()
        min_eig = hermitian_eigenvalues(rho)[0]
        lines.append(f"  trace = {tr.real:.12g}, min eigenvalue = {min_eig:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        return _write_or_fail(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    report = run_verification()
    base = args.out or "verification_report"
    status = _write_or_fail(base + ".txt", report.to_text())
    status = status or _write_or_fail(base + ".tsv", report.to_machine())
    if status:
        return status
    counts = {}
    for t in report.targets:
        counts[t.status.value] = counts.get(t.status.value, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"verification: {summary}; report written to {base}.txt / {base}.tsv")
    return 1 if report.has_mismatch else 0


def cmd_curves(args) -> int:
    config = SweepConfig(
        kind=NoiseKind(args.noise),
        states=tuple(_states_from_args(args)),
        p_start=args.p_start,
        p_end=args.p_end,
        steps=args.steps,
    )
    grid = config.grid()
    series = []
    for alpha, beta in config.states:
        fidelities = _grid_fidelities(config.kind, InputState(alpha, beta), grid)
        series.append((state_label(alpha, beta), list(zip(grid, fidelities))))
    svg = render_line_chart(
        title=f"teleportation fidelity under {config.kind.value} noise",
        x_label="noise probability p",
        y_label="fidelity",
        series=series,
    )
    return _write_or_fail(args.out, svg)


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
    sp.add_argument("--p-start", type=float, default=0.0)
    sp.add_argument("--p-end", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=101)


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
        default=",".join(ALL_COLUMNS),
        help="comma-separated subset of numeric,analytic,linear",
    )
    sp.add_argument("--out", help="output CSV path (default: stdout)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("trace", help="dump the ten intermediate states")
    sp.add_argument("--noise", required=True, choices=[k.value for k in NoiseKind])
    sp.add_argument("--p", type=float, required=True)
    _add_state_flags(sp)
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser(
        "verify", help="compare derived polynomials against the published forms"
    )
    sp.add_argument(
        "--out",
        help="report base path; writes BASE.txt and BASE.tsv "
        "(default: verification_report)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("curves", help="fidelity-vs-p chart as SVG")
    sp.add_argument("--noise", required=True, choices=[k.value for k in NoiseKind])
    _add_state_flags(sp)
    _add_grid_flags(sp)
    sp.add_argument("--out", default="curves.svg", help="output SVG path")
    sp.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
