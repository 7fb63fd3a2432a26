"""CLI surface: amplitude grammar, CSV sweeps, traces, verify, SVG curves."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import stat
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from teleportsim import cli, exact, teleport
from teleportsim.analytic import fidelity_closed, fidelity_linear
from teleportsim.cli import (
    ALL_COLUMNS,
    MAX_STEPS,
    SweepConfig,
    format_amplitude,
    main,
    parse_amplitude,
    parse_states,
    run_sweep,
    state_label,
)
from teleportsim.channels import ChannelSpec, NoiseKind
from teleportsim.exact import GaussianRational
from teleportsim.linalg import Operator, hermitian_eigenvalues
from teleportsim.teleport import InputState, run_stages, teleport_fidelity
from test_teleport import EDGE_STATE


class TestAmplitudeGrammar:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("1", 1 + 0j),
            ("0.6", 0.6 + 0j),
            ("-0.25", -0.25 + 0j),
            ("0.6+0.8i", 0.6 + 0.8j),
            ("0.6-0.8i", 0.6 - 0.8j),
            ("0+1i", 1j),
            ("1e-3+2e-4i", 1e-3 + 2e-4j),
        ],
    )
    def test_parse(self, token, value):
        assert parse_amplitude(token) == value

    @pytest.mark.parametrize("token", ["", "abc", "1+i", "0.8i", "1+2j", "2,3"])
    def test_rejects_and_names_token(self, token):
        with pytest.raises(ValueError) as err:
            parse_amplitude(token)
        if token:
            assert repr(token) in str(err.value)

    def test_format_parse_roundtrip_is_idempotent(self):
        for s in ["1", "0.6+0.8i", "0.70710678118654752", "-1", "0-0.5i"]:
            canonical = format_amplitude(parse_amplitude(s))
            assert format_amplitude(parse_amplitude(canonical)) == canonical

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_format_parse_roundtrip_property(self, re, im):
        z = complex(re, im)
        text = format_amplitude(z)
        assert parse_amplitude(text) == z
        assert format_amplitude(parse_amplitude(text)) == text

    def test_state_parsing(self):
        pairs = parse_states("1,0;0.6,0.8")
        assert pairs == [(1 + 0j, 0j), (0.6 + 0j, 0.8 + 0j)]
        with pytest.raises(ValueError):
            parse_states("1,0,0.5")


BASIS_ZERO = InputState(1 + 0j, 0j)


def grid_bound():
    """A --p-start or --p-end value: a k/100 decimal or a full-mantissa float
    of [0, 1], or a value just or far outside it, or a non-finite one."""
    outside = st.sampled_from([-5e-324, 1 + 2**-52, math.nan, math.inf, -math.inf])
    return st.one_of(
        st.integers(0, 100).map(lambda k: k / 100),
        st.floats(0, 1),
        outside | st.floats(-10, 10),
    )


class TestSweep:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), p_start=0.5, p_end=0.2)
        with pytest.raises(ValueError):
            SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), steps=1)
        with pytest.raises(ValueError):
            SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), columns=("bogus",))
        # a raw (alpha, beta) pair is named where it enters, not in the state loop
        with pytest.raises(ValueError, match=r"state \(1, 0\) is not an InputState"):
            SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO, (1, 0)), steps=3)

    def test_header_and_shape(self):
        config = SweepConfig(NoiseKind.PHASE_FLIP, (BASIS_ZERO,), steps=3)
        lines = run_sweep(config).splitlines()
        assert lines[0] == "p,state_label,f_numeric,f_analytic,f_linear,abs_diff"
        assert len(lines) == 4

    def test_zero_noise_rows_are_exactly_one(self):
        config = SweepConfig(
            NoiseKind.DEPOLARIZING, (BASIS_ZERO, InputState(0.6 + 0j, 0.8 + 0j)), steps=2
        )
        rows = [l.split(",") for l in run_sweep(config).splitlines()[1:]]
        for row in rows:
            if row[0] == "0":
                assert float(row[2]) == pytest.approx(1.0, abs=1e-13)

    def test_depolarizing_endpoint_is_classical_limit(self):
        config = SweepConfig(
            NoiseKind.DEPOLARIZING, (InputState(2**-0.5 + 0j, 2**-0.5 + 0j),), steps=2
        )
        last = run_sweep(config).splitlines()[-1].split(",")
        assert last[0] == "1"
        assert float(last[2]) == pytest.approx(0.5, abs=1e-12)

    def test_phaseflip_basis_state_constant_and_diff_tiny(self):
        config = SweepConfig(NoiseKind.PHASE_FLIP, (BASIS_ZERO,), steps=11)
        for row in run_sweep(config).splitlines()[1:]:
            cols = row.split(",")
            assert float(cols[2]) == pytest.approx(1.0, abs=1e-12)
            assert float(cols[5]) <= 1e-12

    def test_column_selection(self):
        config = SweepConfig(
            NoiseKind.PHASE_FLIP, (BASIS_ZERO,), steps=2, columns=("linear",)
        )
        lines = run_sweep(config).splitlines()
        assert lines[0] == "p,state_label,f_linear"

    def test_byte_determinism(self, tmp_path):
        args = [
            "sweep", "--noise", "phaseflip", "--states", "1,0;0.6,0.8",
            "--steps", "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_unwritable_path(self, capsys):
        code = main(
            ["sweep", "--noise", "bitflip", "--steps", "2",
             "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 1
        assert "/nonexistent-dir/x.csv" in capsys.readouterr().err

    def test_bad_amplitude_exits_2(self, capsys):
        code = main(["sweep", "--noise", "bitflip", "--states", "1,zz"])
        assert code == 2
        assert "'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value", [("--p-start", "nan"), ("--p-end", "nan"), ("--p-end", "inf"), ("--p-start", "-inf")]
    )
    def test_non_finite_grid_bound_exits_2(self, flag, value, capsys):
        assert main(["sweep", "--noise", "bitflip", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"{flag[2:].replace('-', '_')} {value} is not finite" in err
        assert "exceeds" not in err

    @pytest.mark.parametrize(
        "columns",
        ["numeric", "analytic", "linear", "numeric,analytic", "numeric,linear",
         "analytic,linear", "numeric,analytic,linear"],
    )
    @pytest.mark.parametrize(
        "grid,bad",
        [(["--p-start", "0.5", "--p-end", "5"], "2.75"), (["--p-start=-3", "--p-end=-1"], "-3.0")],
        ids=["above", "below"],
    )
    def test_out_of_range_grid_exits_2(self, columns, grid, bad, tmp_path, capsys):
        # the linear column has no range of its own, so the config rejects
        # the grid before any column runs, naming its first bad point
        out = tmp_path / "out.csv"
        argv = ["sweep", "--noise", "bitflip", "--columns", columns, *grid, "--steps", "3"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: noise probability {bad} outside [0, 1]\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "curves"])
    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**20])
    def test_too_many_steps_exits_2_before_any_grid(
        self, command, steps, monkeypatch, tmp_path, capsys
    ):
        def no_grid(self):
            raise AssertionError("grid built")

        monkeypatch.setattr(SweepConfig, "grid", no_grid)
        out = tmp_path / "out"
        # an out-of-range grid would be built to name its first bad point
        argv = [command, "--noise", "bitflip", "--p-end", "2", "--steps", str(steps)]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: steps must be at most {MAX_STEPS}, got {steps}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_max_steps_is_accepted(self):
        config = SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), steps=MAX_STEPS)
        assert len(config.grid()) == MAX_STEPS

    def test_grid_range_edges(self, capsys):
        SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), p_start=0.0, p_end=1.0)
        SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), p_start=-0.0, p_end=0.0)
        # the grid ends at p_end itself, so a p_end above 1 is rejected by
        # the value typed, even where a computed last point would round to 1
        argv = ["sweep", "--noise", "bitflip", "--p-start", "0.04267581793069375",
                "--p-end", "1.0000000000000002", "--steps", "142"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: noise probability 1.0000000000000002 outside [0, 1]\n"
        )
        with pytest.raises(ValueError, match=r"^noise probability 1.0000000000000002 outside"):
            SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), p_end=1 + 2**-52)
        with pytest.raises(ValueError, match=r"^noise probability -5e-324 outside"):
            SweepConfig(NoiseKind.BIT_FLIP, (BASIS_ZERO,), p_start=-5e-324)

    @pytest.mark.parametrize("command", ["sweep", "curves"])
    @pytest.mark.parametrize(
        "grid",
        [
            ["--p-start", "0.08", "--p-end", "1", "--steps", "11"],
            ["--p-start", "0.19", "--steps", "11"],
            ["--p-start", "0.2", "--steps", "7"],
        ],
        ids=["0.08-to-1", "0.19-default-end", "0.2-default-end"],
    )
    def test_grid_ending_at_one_runs(self, command, grid, tmp_path, capsys):
        # a last point computed as p_start + span * (steps-1) / (steps-1)
        # rounds to 1.0000000000000002 on these grids
        out = tmp_path / "out"
        assert main([command, "--noise", "bitflip", *grid, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command == "sweep":
            assert out.read_text().splitlines()[-1].split(",")[0] == "1"

    @settings(max_examples=80)
    @given(
        p_start=grid_bound(),
        p_end=grid_bound(),
        steps=st.integers(2, 60),
        ordered=st.booleans(),
        columns=st.sampled_from(
            [",".join(c) for r in (1, 2, 3) for c in itertools.combinations(ALL_COLUMNS, r)]
            + ["", "bogus", "numeric,bogus"]
        ),
    )
    def test_grid_flags(self, p_start, p_end, steps, ordered, columns):
        # a bad grid exits 2 with one error line and writes nothing; a good
        # one starts at --p-start, ends at --p-end and stays between them
        if ordered and p_start > p_end:
            p_start, p_end = p_end, p_start
        argv = ["sweep", "--noise", "depolarizing", "--states", "0.6,0.8",
                f"--p-start={p_start!r}", f"--p-end={p_end!r}", f"--steps={steps}",
                f"--columns={columns}"]
        good = (
            0 <= p_start <= p_end <= 1
            and all(column in ALL_COLUMNS for column in columns.split(","))
        )
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(out)])
            text = out.read_text() if out.exists() else None
        assert "Traceback" not in err.getvalue()
        if not good:
            assert code == 2 and text is None
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert (code, err.getvalue()) == (0, "")
        grid = [float(row.split(",")[0]) for row in text.splitlines()[1:]]
        assert len(grid) == steps
        assert grid[0] == p_start and grid[-1] == p_end
        assert all(p_start <= p <= p_end for p in grid)

    def test_unnormalized_rejected_without_flag(self, capsys):
        assert main(["sweep", "--noise", "bitflip", "--states", "1,1"]) == 2
        assert main(["sweep", "--noise", "bitflip", "--states", "1,1",
                     "--normalize", "--steps", "2", "--out", "/dev/null"]) == 0


class TestNonFiniteAmplitude:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--noise", "bitflip", "--columns", "numeric"],
            ["sweep", "--noise", "depolarizing"],
            ["trace", "--noise", "bitflip", "--p", "0.1"],
            ["curves", "--noise", "phaseflip"],
        ],
        ids=["sweep-numeric", "sweep-default-columns", "trace", "curves"],
    )
    def test_nan_amplitude_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(argv + ["--alpha", "nan", "--beta", "0", "--out", str(out)])
        assert code == 2
        assert "amplitude alpha = (nan+0j) is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["inf", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--noise", "bitflip"],
            ["trace", "--noise", "bitflip", "--p", "0.1"],
            ["curves", "--noise", "phaseflip"],
        ],
        ids=["sweep", "trace", "curves"],
    )
    def test_normalize_names_the_non_finite_amplitude(self, argv, token, tmp_path, capsys):
        # the finiteness check runs before the division by the norm, which
        # would turn an infinite amplitude into nan+nanj
        out = tmp_path / "out"
        code = main(argv + ["--normalize", f"--states={token},0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"amplitude alpha = ({token}+0j) is not finite" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestAmplitudeRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--noise", "bitflip"],
            ["trace", "--noise", "bitflip", "--p", "0.1"],
            ["curves", "--noise", "phaseflip"],
        ],
        ids=["sweep", "trace", "curves"],
    )
    def test_overflowing_amplitude_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--alpha", "1e200", "--beta", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "deviate from unit norm by inf" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_normalize_outside_double_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["sweep", "--noise", "bitflip", "--normalize", "--states", "1e155,1e155"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "squared norm is outside the double range" in err
        assert not out.exists()


STATE_FLAG_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--noise", "bitflip", "--steps", "2"],
        ["trace", "--noise", "bitflip", "--p", "0.1"],
        ["curves", "--noise", "phaseflip", "--steps", "2"],
    ],
    ids=["sweep", "trace", "curves"],
)


class TestStateFlags:
    @STATE_FLAG_COMMANDS
    def test_empty_states_exits_2(self, argv, tmp_path, capsys):
        # an empty list is a bad list, not a request for the default states
        out = tmp_path / "out"
        assert main(argv + ["--states", "", "--out", str(out)]) == 2
        assert "state '' is not an `alpha,beta` pair" in capsys.readouterr().err
        assert not out.exists()

    @STATE_FLAG_COMMANDS
    @pytest.mark.parametrize(
        "single", [["--alpha", "1", "--beta", "0"], ["--alpha", "1"], ["--beta", "0"]]
    )
    def test_states_with_alpha_or_beta_exits_2(self, argv, single, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--states", "1,0", *single, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--states cannot be combined with --alpha or --beta" in err
        assert "Traceback" not in err
        assert not out.exists()


TRACE_P = ["trace", "--noise", "bitflip", "--alpha", "1", "--beta", "0"]


class TestBadInputs:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (TRACE_P + ["--p", "nan"], "noise probability nan outside [0, 1]"),
            (TRACE_P + ["--p", "inf"], "noise probability inf outside [0, 1]"),
            (TRACE_P + ["--p=-0.5"], "noise probability -0.5 outside [0, 1]"),
            (TRACE_P + ["--p", "1e400"], "noise probability inf outside [0, 1]"),
            (["sweep", "--noise", "bitflip", "--steps", "1"], "steps must be at least 2, got 1"),
            (["sweep", "--noise", "bitflip", "--steps", "0"], "steps must be at least 2, got 0"),
            (["curves", "--noise", "bitflip", "--steps", "1"], "steps must be at least 2, got 1"),
            (["curves", "--noise", "bitflip", "--steps", "0"], "steps must be at least 2, got 0"),
            (["sweep", "--noise", "bitflip", "--columns="], "unknown column ''"),
        ],
        ids=[
            "trace-p-nan", "trace-p-inf", "trace-p-negative", "trace-p-overflow",
            "sweep-steps-1", "sweep-steps-0", "curves-steps-1", "curves-steps-0",
            "sweep-empty-columns",
        ],
    )
    def test_exits_2_with_message(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @settings(max_examples=60)
    @given(
        text=st.one_of(
            st.floats(0, 1).map(repr),
            st.floats(allow_nan=False).filter(lambda p: not 0 <= p <= 1).map(repr),
            st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0.0", "1_0", " 0.5 "]),
            st.text(st.characters(codec="ascii", exclude_categories=["Cc"]), max_size=6),
        )
    )
    def test_trace_p(self, text):
        # a --p that argparse or the spec rejects exits 2 with one error
        # line and writes nothing; a probability runs and names itself
        try:
            p = float(text)
        except ValueError:
            p = None
        code, err, written = _run_with_out(TRACE_P + [f"--p={text}"])
        assert "Traceback" not in err
        if p is None or not 0 <= p <= 1:
            assert code == 2 and written is None
            assert sum("error: " in line for line in err.splitlines()) == 1
            return
        assert (code, err) == (0, "")
        assert written.splitlines()[0].startswith(f"stage trace: noise=bitflip p={p:.17g} ")

    @settings(max_examples=40)
    @given(
        command=st.sampled_from(["sweep", "curves"]),
        steps=st.integers(max_value=1) | st.integers(min_value=MAX_STEPS + 1),
    )
    def test_steps_out_of_range(self, command, steps):
        # the count is checked before any grid is built, however large it is
        code, err, written = _run_with_out([command, "--noise", "bitflip", f"--steps={steps}"])
        bound = "at least 2" if steps < 2 else f"at most {MAX_STEPS}"
        assert (code, err, written) == (2, f"error: steps must be {bound}, got {steps}\n", None)


def _run_with_out(argv: list[str]) -> tuple[int, str, str | None]:
    """``main(argv + ["--out", path])`` in a fresh directory: the exit code,
    argparse's included, the stderr text and the file written, or None."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        written = out.read_text() if out.exists() else None
    return code, err.getvalue(), written


@st.composite
def amplitude_pair(draw):
    """``(alpha, beta, good, good_normalized)``: a pair of complex
    amplitudes and whether each command accepts it without and with
    --normalize."""
    parts = draw(st.tuples(*[st.floats(-1, 1)] * 4).filter(
        lambda parts: math.fsum(x * x for x in parts) > 1e-6
    ))
    norm = math.sqrt(math.fsum(x * x for x in parts))
    alpha, beta = complex(*parts[:2]) / norm, complex(*parts[2:]) / norm
    case = draw(st.sampled_from(
        ["unit", "edge", "subnormal", "unnormalized", "zero", "underflow", "overflow",
         "nonfinite"]
    ))
    if case == "unit":
        return alpha, beta, True, True
    if case == "edge":
        # |a|^2 + |b|^2 = 1 +- 1e-9 (1 +- 1e-6), where rounding decides the
        # verdict: the boundary's own verdict is the one every command follows
        deviation = draw(st.sampled_from([-1e-9, 1e-9])) * (1 + draw(st.floats(-1e-6, 1e-6)))
        scale = math.sqrt(1 + deviation)
        alpha, beta = alpha * scale, beta * scale
        try:
            InputState(alpha, beta)
        except ValueError:
            return alpha, beta, False, True
        return alpha, beta, True, True
    if case == "subnormal":
        # subnormal imaginary parts on a real unit pair leave its norm alone
        theta = draw(st.floats(0, 2 * math.pi))
        return complex(math.cos(theta), 5e-324), complex(math.sin(theta), -5e-324), True, True
    if case == "unnormalized":
        factor = draw(st.sampled_from([1e-3, 0.5, 2.0, 1e3]))
        return alpha * factor, beta * factor, False, True
    if case == "zero":
        return 0j, 0j, False, False
    if case == "underflow":
        # the squared norm underflows to zero
        return complex(5e-324), draw(st.sampled_from([0j, complex(0, 5e-324)])), False, False
    if case == "overflow":
        return complex(1e200, 0), beta, False, False
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    parts = [alpha.real, alpha.imag, beta.real, beta.imag]
    parts[draw(st.integers(0, 3))] = bad
    return complex(*parts[:2]), complex(*parts[2:]), False, False


STATE_COMMANDS = {
    "sweep": ["sweep", "--noise", "bitflip", "--steps", "2"],
    "curves": ["curves", "--noise", "phaseflip", "--steps", "2"],
    "trace": ["trace", "--noise", "depolarizing", "--p", "0.1"],
}


class TestStateBoundary:
    """Amplitude text is checked once, where it enters: a bad state exits 2
    with an error line and writes nothing; a good one runs."""

    @settings(max_examples=150)
    @given(
        command=st.sampled_from(list(STATE_COMMANDS)),
        pairs=st.lists(amplitude_pair(), min_size=1, max_size=3),
        flags=st.booleans(),
        normalize=st.booleans(),
    )
    def test_bad_states_exit_2_and_good_ones_run(self, command, pairs, flags, normalize):
        if command == "trace":
            pairs = pairs[:1]
        argv = list(STATE_COMMANDS[command]) + ["--normalize"] * normalize
        if flags and len(pairs) == 1:
            ((alpha, beta, _, _),) = pairs
            argv += [f"--alpha={_exact_text(alpha)}", f"--beta={_exact_text(beta)}"]
        else:
            argv.append("--states=" + ";".join(
                f"{_exact_text(alpha)},{_exact_text(beta)}" for alpha, beta, _, _ in pairs
            ))
        good = all(pair[3 if normalize else 2] for pair in pairs)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--out", str(out)])
            written = out.exists()
        assert "Traceback" not in err.getvalue()
        if good:
            assert (code, err.getvalue(), written) == (0, "", True)
        else:
            assert code == 2 and not written
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize("command", list(STATE_COMMANDS))
    def test_state_at_the_norm_edge_runs(self, command, tmp_path):
        alpha, beta = EDGE_STATE
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(list(STATE_COMMANDS[command]) + [
                f"--alpha={_exact_text(alpha)}", f"--beta={_exact_text(beta)}",
                "--out", str(tmp_path / "out"),
            ])
        assert (code, err.getvalue(), (tmp_path / "out").exists()) == (0, "", True)


class TestStatesCheckedOnce:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--noise", "bitflip", "--steps", "3"],
            ["sweep", "--noise", "bitflip", "--steps", "3", "--normalize"],
            ["curves", "--noise", "phaseflip", "--steps", "3"],
            ["trace", "--noise", "depolarizing", "--p", "0.2"],
        ],
        ids=["sweep", "sweep-normalize", "curves", "trace"],
    )
    def test_one_input_state_per_state(self, argv, monkeypatch, tmp_path):
        built = []
        # the checks are InputState's constructor: one call per state
        check = InputState.__init__

        def counting_check(state, alpha, beta):
            built.append(state)
            check(state, alpha, beta)

        monkeypatch.setattr(InputState, "__init__", counting_check)
        states = "0.6,0+0.8i" if argv[0] == "trace" else "1,0;0.6,0+0.8i;0.5+0.5i,0.5-0.5i"
        assert main(argv + ["--states", states, "--out", str(tmp_path / "out")]) == 0
        assert len(built) == states.count(";") + 1


class TestTrace:
    def test_noiseless_layers_repeat_stages(self, capsys):
        assert main(["trace", "--noise", "depolarizing", "--p", "0",
                     "--alpha", "0.6", "--beta", "0.8"]) == 0
        text = capsys.readouterr().out
        blocks = {}
        current = None
        for line in text.splitlines():
            if line.startswith("rho"):
                current = line.split()[0]
                blocks[current] = []
            elif current and line.startswith("  ") and "trace" not in line:
                blocks[current].append(line)
        assert blocks["rho9"] == blocks["rho8"]
        assert blocks["rho3"] == blocks["rho2"]

    def test_full_depolarization_output(self, capsys):
        assert main(["trace", "--noise", "depolarizing", "--p", "1",
                     "--alpha", "0.6", "--beta", "0.8"]) == 0
        text = capsys.readouterr().out
        tail = text[text.index("rho10"):]
        assert "0.5+0i" in tail

    def test_phaseflip_probe_diagonal(self, capsys):
        assert main(["trace", "--noise", "phaseflip", "--p", "0.25",
                     "--alpha", "0.6", "--beta", "0.8"]) == 0
        text = capsys.readouterr().out
        tail = text[text.index("rho10"):]
        assert "0.36+0i" in tail and "0.64+0i" in tail


class TestVerifyCommand:
    def test_report_files_and_exit_code(self, tmp_path, capsys):
        base = tmp_path / "report"
        # honest exit: the published coherence forms do not match the
        # pipeline, so mismatches are expected and the exit status is 1
        assert main(["verify", "--out", str(base)]) == 1
        txt = (tmp_path / "report.txt").read_text()
        tsv = (tmp_path / "report.tsv").read_text()
        assert "phaseflip coherence vs published u6\tMatch" in tsv
        assert "bitflip coherence keep 4u4\tMismatch" in tsv
        assert "NotIdentifiable" in tsv
        assert txt.startswith("verification report")
        assert "Mismatch" in capsys.readouterr().out

    def test_perturbed_degree_localized(self, tmp_path, monkeypatch):
        # the same comparison --- but against a deliberately corrupted table
        # entry --- must flag exactly the perturbed degree in the diffs
        import teleportsim.analytic as analytic
        from conftest import replace_field
        from teleportsim.analytic import PUBLISHED
        from teleportsim.exact import PolyP

        coeffs = list(PUBLISHED.u6.coefficients)
        coeffs[5] = coeffs[5] + 1
        monkeypatch.setattr(analytic, "PUBLISHED", replace_field(PUBLISHED, u6=PolyP(coeffs)))
        base = tmp_path / "bad"
        assert main(["verify", "--out", str(base)]) == 1
        txt = (tmp_path / "bad.txt").read_text()
        assert "diff p^5" in txt


class TestCurves:
    def test_svg_determinism_and_structure(self, tmp_path):
        args = ["curves", "--noise", "depolarizing", "--steps", "21"]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        data = a.read_text()
        assert a.read_bytes() == b.read_bytes()
        assert data.startswith("<svg")
        assert data.count("<polyline") == 3  # one per default state
        assert "noise probability p" in data
        assert "fidelity" in data

    @pytest.mark.parametrize(
        "grid,bad",
        [(["--p-start", "0.5", "--p-end", "5"], "2.75"), (["--p-start=-3", "--p-end=-1"], "-3.0")],
        ids=["above", "below"],
    )
    def test_out_of_range_grid_exits_2(self, grid, bad, tmp_path, capsys):
        out = tmp_path / "c.svg"
        assert main(["curves", "--noise", "bitflip", *grid, "--steps", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: noise probability {bad} outside [0, 1]\n"
        assert not out.exists()

    def test_custom_states_flow_into_legend(self, tmp_path):
        out = tmp_path / "c.svg"
        assert main(["curves", "--noise", "phaseflip", "--steps", "5",
                     "--states", "1,0", "--out", str(out)]) == 0
        data = out.read_text()
        assert data.count("<polyline") == 1
        assert state_label(1 + 0j, 0j) in data


COMPLEX_STATES = "--states=0.6,0+0.8i;0.6+0.8i,0;0.5+0.5i,0.5-0.5i"
TRACE_STATE = ["--alpha", "0.6", "--beta", "0+0.8i"]


GOLDEN_ARGV = {}
for _kind in ("depolarizing", "bitflip", "phaseflip"):
    GOLDEN_ARGV.update({
        f"sweep-{_kind}-default": ["sweep", "--noise", _kind],
        f"sweep-{_kind}-complex": ["sweep", "--noise", _kind, COMPLEX_STATES],
        f"curves-{_kind}": ["curves", "--noise", _kind],
        f"trace-{_kind}-p0": ["trace", "--noise", _kind, "--p", "0", *TRACE_STATE],
        f"trace-{_kind}-p0.3": ["trace", "--noise", _kind, "--p", "0.3", *TRACE_STATE],
    })


# sha256 of each output file.  The curves entries were recorded from the
# per-point pipeline before the batched one replaced it (x86-64, numpy 2.4
# with its bundled OpenBLAS).  The sweep and trace entries were recorded again
# when the fidelity became a fixed-order fold and trace's minimum eigenvalue
# was printed at 1e-12: before that they held only under this BLAS kernel and
# SIMD level, and TestCrossHost now checks that they hold under others.  The
# sweep entries were recorded once more when the published fidelity became
# one real form in the channel's own variable, which changed only their
# f_analytic and abs_diff columns.  The CSV prints 17 significant digits, so
# any change in the last bit of a fidelity changes a hash.
GOLDEN_SHA256 = {
    "sweep-depolarizing-default": "be06f8867b092e08163927aaf3ca7423a41ff372a520ff7cb2df224cab4d5adc",
    "sweep-depolarizing-complex": "e317ebd560a3c511b5a4bc28a41e13b84f3dec5811bdf6b11eefecd0f4514d97",
    "curves-depolarizing": "145839f51d7ef39376ed1905e5e71408ebc467ccb331cc9bfdda09267671666d",
    "trace-depolarizing-p0": "069982e9df710dacd4202f9456edd6df13df6d439a26caa7d4f13e906cfe8b96",
    "trace-depolarizing-p0.3": "b73b744163352e1985bf5d29b13081871434d79394168ed4814f8965e3afee46",
    "sweep-bitflip-default": "7b3c6188603e7d5f4d338a51da8d8af1c331a8e31b531a6730ef7f72fa9ae19d",
    "sweep-bitflip-complex": "7f40541c81f393b0319b344f59d0a776c87858c077d9e8a9a48ea7d91f7039a1",
    "curves-bitflip": "b68bf71df5da7dc9ca20acd08352a33cebda4de547733d22bc047b30aacde803",
    "trace-bitflip-p0": "b1047a7940c3a4673db7dcbe4e864ee521f9bf771c2f87b85ce885464d3db26c",
    "trace-bitflip-p0.3": "baae8bd4c99f74ce0e621a7be3fbef18a6325fa1f59fdfe7cccf9feccfab0aaf",
    "sweep-phaseflip-default": "eb81454b44b19692f70e3efe2c10175773c7629ea01e0e33521530f74e990bef",
    "sweep-phaseflip-complex": "7642284a346ab1935d948d15eab9ab37e026fe69cf8c745970b5de3be1438a2f",
    "curves-phaseflip": "db6559f2a0f5ba65f75597e5e6416d615b8503d043b102f32a446c2e932a2412",
    "trace-phaseflip-p0": "3391fa86ed9f4a4f79eda85afd2a31b2316c26ea7880acc3169759e7b6fa445f",
    "trace-phaseflip-p0.3": "be3248c16c0dc6351d2e42af748caab05636748717a85d1937d22da619bb3e99",
}


# sha256 of the `verify --out report` outputs, run from the report's
# directory so that stdout names a relative path; recorded when the
# marginal-factorization inputs became dyadic, so that the report prints
# exact deviations.
GOLDEN_VERIFY_SHA256 = {
    "report.txt": "5f576d7a03c579e7ec2a48cf411ae7bf7b6aea4e6548d5f67cec4d5ecd205d10",
    "report.tsv": "0c42ed5868f5b2d55ad08f04d36fcc72814220ac11671a905fc071195cb13995",
    "stdout": "3598050808216214af7627f350b9360912332f942babd11f5e290fcf1dc75379",
}


class TestGoldenBytes:
    """The output files are pinned byte for byte, not only run to run."""

    @pytest.mark.parametrize("name", list(GOLDEN_SHA256))
    def test_output_sha256(self, name, tmp_path):
        out = tmp_path / "out"
        assert main(GOLDEN_ARGV[name] + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[name]

    def test_verify_sha256(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            # the published coherence forms mismatch, so the status is 1
            assert main(["verify", "--out", "report"]) == 1
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("report.txt", "report.tsv")
        }
        digests["stdout"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digests == GOLDEN_VERIFY_SHA256


OUT_COMMANDS = {
    "sweep": ["sweep", "--noise", "bitflip", "--steps", "2"],
    "trace": ["trace", "--noise", "bitflip", "--p", "0.1", "--alpha", "1", "--beta", "0"],
    "curves": ["curves", "--noise", "bitflip", "--steps", "2"],
    "verify": ["verify"],
}

# each command that writes a file: its golden argv, exit status, and the
# sha256 of each file it writes, by the suffix added to --out
REWRITES = {
    "sweep": (GOLDEN_ARGV["sweep-bitflip-complex"], 0,
              {"": GOLDEN_SHA256["sweep-bitflip-complex"]}),
    "trace": (GOLDEN_ARGV["trace-bitflip-p0.3"], 0, {"": GOLDEN_SHA256["trace-bitflip-p0.3"]}),
    "curves": (GOLDEN_ARGV["curves-bitflip"], 0, {"": GOLDEN_SHA256["curves-bitflip"]}),
    "verify": (["verify"], 1, {".txt": GOLDEN_VERIFY_SHA256["report.txt"],
                               ".tsv": GOLDEN_VERIFY_SHA256["report.tsv"]}),
}


def _rewrite(command: str, out: Path) -> dict[str, str]:
    """Run ``command`` with ``--out out``; the sha256 of each file written."""
    argv, status, digests = REWRITES[command]
    assert main(argv + ["--out", str(out)]) == status
    return {suffix: hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest()
            for suffix in digests}


def _prefill(command: str, out: Path, size: int = 1 << 20) -> dict[str, str]:
    """Fill each file ``command`` writes at ``out`` with ``size`` stale bytes;
    the digests the files must have after the command runs."""
    digests = REWRITES[command][2]
    for suffix in digests:
        Path(f"{out}{suffix}").write_bytes(b"x" * size)
    return digests


class TestOutFlag:
    """One --out rule and one writer for every command."""

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_empty_out_exits_2_and_writes_nothing(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(OUT_COMMANDS[command] + ["--out="]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert [line.startswith("error: ") for line in captured.err.splitlines()] == [True]
        assert list(tmp_path.iterdir()) == []

    def test_verify_default_base(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify"]) == 1
        names = ("verification_report.txt", "verification_report.tsv")
        assert {p.name for p in tmp_path.iterdir()} == set(names)
        digests = {
            golden: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for golden, name in zip(("report.txt", "report.tsv"), names)
        }
        assert digests.items() <= GOLDEN_VERIFY_SHA256.items()
        assert capsys.readouterr().out.endswith(
            "report written to verification_report.txt / verification_report.tsv\n"
        )

    @pytest.mark.parametrize(
        "command,directory",
        [("sweep", "out"), ("trace", "out"), ("curves", "out"),
         ("verify", "out.txt"), ("verify", "out.tsv")],
    )
    def test_directory_out_exits_1(self, command, directory, tmp_path, capsys):
        # a directory where the file would go: the write fails, not the run
        (tmp_path / directory).mkdir()
        assert main(OUT_COMMANDS[command] + ["--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path / directory}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("size", [1 << 20, 16], ids=["longer", "shorter"])
    @pytest.mark.parametrize("command", list(REWRITES))
    def test_rewrite_leaves_no_stale_bytes(self, command, size, tmp_path):
        # an existing file is overwritten in place and cut to the new length
        out = tmp_path / "out"
        digests = _prefill(command, out, size)
        assert _rewrite(command, out) == digests

    @pytest.mark.parametrize("command", list(REWRITES))
    def test_symlink_out_written_through(self, command, tmp_path):
        out = tmp_path / "out"
        digests = REWRITES[command][2]
        for suffix in digests:
            target = tmp_path / f"target{suffix}"
            target.write_bytes(b"x" * (1 << 20))
            Path(f"{out}{suffix}").symlink_to(target)
        assert _rewrite(command, out) == digests
        for suffix in digests:
            assert Path(f"{out}{suffix}").readlink() == tmp_path / f"target{suffix}"

    @pytest.mark.parametrize("command", list(REWRITES))
    def test_existing_mode_kept(self, command, tmp_path):
        out = tmp_path / "out"
        digests = _prefill(command, out)
        for suffix in digests:
            os.chmod(f"{out}{suffix}", 0o600)
        assert _rewrite(command, out) == digests
        for suffix in digests:
            assert stat.S_IMODE(os.stat(f"{out}{suffix}").st_mode) == 0o600

    # verify writes BASE.txt and BASE.tsv, so it cannot name a device
    @pytest.mark.parametrize("command", ["sweep", "trace", "curves"])
    def test_dev_null_out_exits_0(self, command, capsys):
        # a character device has no length to cut: ftruncate would fail
        assert main(REWRITES[command][0] + ["--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_out_gets_the_bytes(self, tmp_path):
        fifo = tmp_path / "out"
        os.mkfifo(fifo)
        received = []
        # opening either end blocks until the other end opens
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(REWRITES["sweep"][0] + ["--out", str(fifo)]) == 0
        reader.join(timeout=60)
        assert [hashlib.sha256(data).hexdigest() for data in received] == [
            GOLDEN_SHA256["sweep-bitflip-complex"]
        ]

    @pytest.mark.parametrize("command", list(REWRITES))
    def test_one_open_per_file_without_truncation(self, command, tmp_path, monkeypatch):
        # truncating an allocated file to zero stalls ext4 on every rewrite,
        # so an existing file is opened once and never with O_TRUNC
        out = tmp_path / "out"
        digests = _prefill(command, out)
        calls = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            calls.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        assert _rewrite(command, out) == digests
        assert [path for path, _ in calls] == [f"{out}{suffix}" for suffix in digests]
        assert [flags & os.O_TRUNC for _, flags in calls] == [0] * len(digests)


class TestParserReuse:
    """One parser serves every call in a process: no call's flags, defaults
    or errors reach the next, and the command runs as bound on ``cli`` at
    call time."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_golden_bytes_twice_interleaved(self, tmp_path):
        for round_ in range(2):
            for command, (_, _, digests) in REWRITES.items():
                assert _rewrite(command, tmp_path / f"{command}-{round_}") == digests

    @pytest.mark.parametrize("command", list(REWRITES))
    def test_usage_error_and_help_leave_no_trace(self, command, tmp_path):
        digests = REWRITES[command][2]
        assert _rewrite(command, tmp_path / "before") == digests
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--noise", "bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert _rewrite(command, tmp_path / "after") == digests

    def test_sweep_flags_do_not_carry_over(self, tmp_path):
        out = tmp_path / "given.csv"
        assert main(["sweep", "--noise", "bitflip", "--p-start", "0.5", "--p-end", "0.9",
                     "--steps", "11", "--columns", "linear", "--states", "2,0",
                     "--normalize", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 11
        text = _run_cli(GOLDEN_ARGV["sweep-bitflip-default"])
        # the default 101 rows for each of the three default states
        assert len(text.splitlines()) == 1 + 3 * 101
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256["sweep-bitflip-default"]

    def test_curves_out_does_not_carry_over(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["curves", "--noise", "bitflip", "--steps", "11", "--out", "given.svg"]) == 0
        assert main(GOLDEN_ARGV["curves-bitflip"]) == 0
        assert {p.name for p in tmp_path.iterdir()} == {"given.svg", "curves.svg"}
        digest = hashlib.sha256((tmp_path / "curves.svg").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256["curves-bitflip"]

    @pytest.mark.parametrize("command", list(OUT_COMMANDS))
    def test_patched_command_is_called(self, command, monkeypatch):
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda args: calls.append(args.command) or 7)
        assert main(OUT_COMMANDS[command]) == 7
        assert calls == [command]


# The golden commands, and a sweep of states whose amplitudes make every
# projector entry a rounded complex product: numpy's SIMD complex multiply
# rounds those differently from the textbook product.
CROSS_HOST_ARGV = GOLDEN_ARGV | {
    "sweep-bitflip-generic": ["sweep", "--noise", "bitflip", "--normalize",
                              "--states=0.3+0.7i,0.2-0.5i;0.1+0.9i,-0.3+0.2i"],
}

# environments that change which float kernels run: OpenBLAS's oldest x86-64
# kernel, and numpy without its AVX2 and AVX-512 loops
CROSS_HOST_ENV = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-without-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

_CROSS_HOST_CHILD = """
import json, sys
from teleportsim.cli import main
for path, argv in json.loads(sys.argv[1]).items():
    if main(argv + ["--out", path]) != 0:
        sys.exit(f"exit status not 0: {argv}")
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="the kernel and CPU feature names are x86-64 ones",
)
class TestCrossHost:
    """The float outputs do not depend on the BLAS kernel or numpy's SIMD
    level.  The variables are set only in a child process, which runs every
    command; its files must equal this process's."""

    @pytest.fixture(scope="class")
    def default_bytes(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("default") / "out"
        files = {}
        for name, argv in CROSS_HOST_ARGV.items():
            assert main(argv + ["--out", str(out)]) == 0
            files[name] = out.read_bytes()
        return files

    @pytest.mark.parametrize("setting", list(CROSS_HOST_ENV))
    def test_same_bytes(self, setting, default_bytes, tmp_path):
        package_root = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, **CROSS_HOST_ENV[setting])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        jobs = {str(tmp_path / name): argv for name, argv in CROSS_HOST_ARGV.items()}
        subprocess.run(
            [sys.executable, "-c", _CROSS_HOST_CHILD, json.dumps(jobs)],
            env=env, check=True, timeout=120,
        )
        differ = [name for name in CROSS_HOST_ARGV
                  if (tmp_path / name).read_bytes() != default_bytes[name]]
        assert differ == []


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _exact_text(z: complex) -> str:
    """`re+imi` text that parses back to exactly ``z``, a -0.0 part included."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _reference_sweep_csv(config: SweepConfig) -> str:
    """`run_sweep`'s CSV with every field formatted on its own and joined
    with commas: the reference for the CLI's one format call per row."""
    want = set(config.columns)
    with_diff = {"numeric", "analytic"} <= want
    names = [name for name in ALL_COLUMNS if name in want]
    header = ["p", "state_label"] + [f"f_{name}" for name in names]
    lines = [",".join(header + ["abs_diff"] * with_diff)]
    grid = config.grid()
    spec = ChannelSpec(config.kind, grid)
    for state in config.states:
        computed = {
            "numeric": teleport_fidelity(state, spec).tolist(),
            "analytic": fidelity_closed(state, spec).tolist(),
            "linear": fidelity_linear(state, spec).tolist(),
        }
        columns = [computed[name] for name in names]
        if with_diff:
            columns.append(
                [abs(a - b) for a, b in zip(computed["numeric"], computed["analytic"])]
            )
        for p, *values in zip(grid, *columns):
            fields = [f"{p:.17g}", state_label(state.alpha, state.beta)]
            lines.append(",".join(fields + [f"{v:.17g}" for v in values]))
    return "\n".join(lines) + "\n"


def _reference_trace_text(kind: NoiseKind, p: float, alpha: complex, beta: complex) -> str:
    """`trace`'s text with one f-string per entry: the reference for the
    CLI's one format call per row."""
    stages = run_stages(InputState(alpha, beta), ChannelSpec(kind, p))
    lines = [f"stage trace: noise={kind.value} p={p:.17g} state={state_label(alpha, beta)}"]
    for label, rho in stages.items():
        lines.append("")
        lines.append(f"{label} ({rho.num_qubits} qubit{'s' if rho.num_qubits > 1 else ''})")
        for row in rho.entries.tolist():
            lines.append("  " + "  ".join(f"{f'{z.real:.12g}{z.imag:+.12g}i':>32}" for z in row))
        # at a resolution of 1e-12, and never -0
        min_eig = round(float(hermitian_eigenvalues(rho)[0]), 12) + 0.0
        lines.append(f"  trace = {rho.trace().real:.12g}, min eigenvalue = {min_eig:.12g}")
    return "\n".join(lines) + "\n"


def _assert_same_text(text: str, expected: str) -> None:
    """Fail on the first differing line.  pytest's own diff of two whole
    traces is slow enough to stall hypothesis's shrinking."""
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), len(want))
        pytest.fail(f"line {k}: {got[k:k + 1]} != {want[k:k + 1]}")


# one state with -0.0 parts, which the label and the pipeline keep
SIGNED_ZERO_STATES = "1,0;-0.0+0.6i,0.8-0.0i;0.5+0.5i,0.5-0.5i"
# a drawn trace run: kind, p and the four amplitude parts, normalized later
TRACE_DRAWS = (
    st.sampled_from(list(NoiseKind)),
    st.floats(min_value=-0.0, max_value=1.0),
    st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4).filter(
        lambda parts: sum(x * x for x in parts) > 1e-3
    ),
)


class TestFormatting:
    """The row-at-a-time formatters write the bytes of the per-field ones."""

    @pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
    @pytest.mark.parametrize(
        "columns",
        [",".join(c) for r in (1, 2, 3) for c in itertools.combinations(ALL_COLUMNS, r)],
    )
    def test_sweep_column_subsets(self, kind, columns):
        grid = ["--p-start", "0.1", "--p-end", "0.9", "--steps", "7"]
        argv = ["sweep", "--noise", kind.value, "--columns", columns, *grid,
                "--states", SIGNED_ZERO_STATES]
        states = tuple(InputState(a, b) for a, b in parse_states(SIGNED_ZERO_STATES))
        config = SweepConfig(kind, states, 0.1, 0.9, 7, tuple(columns.split(",")))
        text = _run_cli(argv)
        assert "-0.0+0.6i" in text
        _assert_same_text(text, _reference_sweep_csv(config))

    @given(*TRACE_DRAWS)
    @example(NoiseKind.BIT_FLIP, -0.0, (0.6, -0.0, -0.0, 0.8))
    def test_trace_equals_per_entry_formatter(self, kind, p, parts):
        state = InputState.normalized(complex(*parts[:2]), complex(*parts[2:]))
        alpha, beta = complex(state.alpha), complex(state.beta)
        argv = ["trace", "--noise", kind.value, f"--p={p!r}",
                f"--states={_exact_text(alpha)},{_exact_text(beta)}"]
        _assert_same_text(_run_cli(argv), _reference_trace_text(kind, p, alpha, beta))

    def test_trace_keeps_signed_zero_cells_apart(self):
        # 0+0i, -0+0i and 0-0i are one complex value, and one dict key, but
        # three printed cells: rho1 holds all three
        argv = ["trace", "--noise", "bitflip", "--p=-0.0", "--states=0.6-0.0i,-0.0+0.8i"]
        text = _run_cli(argv)
        rho1 = text.split("\n\n")[1]
        assert {"0+0i", "-0+0i", "0-0i"} <= set(rho1.split())
        alpha, beta = complex(0.6, -0.0), complex(-0.0, 0.8)
        _assert_same_text(text, _reference_trace_text(NoiseKind.BIT_FLIP, -0.0, alpha, beta))


class TestTraceStack:
    """`trace` reads the minimum eigenvalues and traces of the nine
    three-qubit stages from one stacked operator: the same bits as one call
    per stage."""

    @settings(max_examples=200)
    @given(*TRACE_DRAWS)
    def test_stacked_equals_per_stage(self, kind, p, parts):
        state = InputState.normalized(complex(*parts[:2]), complex(*parts[2:]))
        *cubes, last = run_stages(state, ChannelSpec(kind, p)).values()
        assert [rho.dim for rho in cubes] == [8] * 9 and last.dim == 2
        stack = Operator([rho.entries for rho in cubes])
        stacked = hermitian_eigenvalues(stack)[:, 0].tolist() + stack.trace().real.tolist()
        single = [float(hermitian_eigenvalues(rho)[0]) for rho in cubes]
        single += [float(rho.trace().real) for rho in cubes]
        assert [x.hex() for x in stacked] == [x.hex() for x in single]


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py"
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    return tracer_mod


class TestTracerBindings:
    """The benchmark's trace harness wraps module bindings of the package;
    every binding it patches must exist and keep its call signature."""

    def test_traced_outputs_equal_untraced(self, monkeypatch):
        tracer_mod = _load_tracer_module()
        argvs = [
            ["sweep", "--noise", "depolarizing", "--steps", "11", "--states", "0.6,0+0.8i"],
            ["trace", "--noise", "bitflip", "--p", "0.3", *TRACE_STATE],
        ]
        untraced = [_run_cli(argv) for argv in argvs]
        original = teleport.run_stages_from_initial
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced = [_run_cli(argv) for argv in argvs]
        finally:
            tracer.uninstall()
        assert traced == untraced
        assert tracer.calls["cli.cmd_trace"] == 1
        assert tracer.calls["cli.run_sweep"] == 1
        # one stacked call for the trace's nine three-qubit stages, one for rho10
        assert tracer.calls["linalg.hermitian_eigenvalues"] == 2
        # one batched run for the sweep's state, one for the trace
        assert tracer.calls["teleport.run_stages_from_initial"] == 2
        assert dict(tracer.runs) == {"depolarizing": 1, "bitflip": 1}
        assert tracer.run_conjugations == {"depolarizing": 4, "bitflip": 4}
        # each published-form column is computed once over the 11-point grid
        assert tracer.calls["analytic.fidelity_closed"] == 1
        assert tracer.calls["analytic.fidelity_linear"] == 1
        assert teleport.run_stages_from_initial is original
        assert [_run_cli(argv) for argv in argvs] == untraced
        # each column layer runs once per chunk: 11 points in chunks of 5 make 3
        monkeypatch.setattr(cli, "BATCH_POINTS", 5)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            assert _run_cli(argvs[0]) == untraced[0]
        finally:
            tracer.uninstall()
        for name in ("fidelity_closed", "fidelity_linear"):
            assert tracer.calls[f"analytic.{name}"] == 3
        assert tracer.calls["teleport.run_stages_from_initial"] == 3

    def test_traced_exact_route_equals_untraced(self):
        state = InputState(GaussianRational(Fraction(3, 5)), GaussianRational(0, Fraction(4, 5)))
        kind = NoiseKind.PHASE_FLIP
        alternate = teleport.ALTERNATE_ASSIGNMENTS[0]

        def run():
            rho = exact.run_pipeline_symbolic(state, kind)
            return rho.entries, exact.extract_transfer_map(kind, alternate)

        untraced = run()
        exact.extract_transfer_map.cache_clear()
        original = teleport.run_stages_from_initial
        original_symbolic = exact.run_pipeline_symbolic
        tracer = _load_tracer_module().Tracer()
        tracer.install()
        try:
            traced = run()
        finally:
            tracer.uninstall()
        for before, after in zip(untraced, traced):
            assert before.shape == after.shape
            assert all(x == y for x, y in zip(before.flat, after.flat))
        # the exact route propagates Paulis: it runs no dense pipeline
        assert tracer.calls["teleport.run_stages_from_initial"] == 0
        assert tracer.calls["linalg.conjugate_by"] == 0
        assert dict(tracer.runs) == {}
        assert teleport.run_stages_from_initial is original
        assert exact.run_pipeline_symbolic is original_symbolic
