"""CLI surface: amplitude grammar, CSV sweeps, traces, verify, SVG curves."""

import contextlib
import hashlib
import importlib.util
import io
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from teleportsim import exact, teleport
from teleportsim.cli import (
    SweepConfig,
    format_amplitude,
    main,
    parse_amplitude,
    parse_states,
    run_sweep,
    state_label,
)
from teleportsim.channels import NoiseKind
from teleportsim.exact import GaussianRational
from teleportsim.teleport import InputState


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


class TestSweep:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), p_start=0.5, p_end=0.2)
        with pytest.raises(ValueError):
            SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), steps=1)
        with pytest.raises(ValueError):
            SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), columns=("bogus",))

    def test_header_and_shape(self):
        config = SweepConfig(NoiseKind.PHASE_FLIP, ((1 + 0j, 0j),), steps=3)
        lines = run_sweep(config).splitlines()
        assert lines[0] == "p,state_label,f_numeric,f_analytic,f_linear,abs_diff"
        assert len(lines) == 4

    def test_zero_noise_rows_are_exactly_one(self):
        config = SweepConfig(
            NoiseKind.DEPOLARIZING, ((1 + 0j, 0j), (0.6 + 0j, 0.8 + 0j)), steps=2
        )
        rows = [l.split(",") for l in run_sweep(config).splitlines()[1:]]
        for row in rows:
            if row[0] == "0":
                assert float(row[2]) == pytest.approx(1.0, abs=1e-13)

    def test_depolarizing_endpoint_is_classical_limit(self):
        config = SweepConfig(
            NoiseKind.DEPOLARIZING, ((2**-0.5 + 0j, 2**-0.5 + 0j),), steps=2
        )
        last = run_sweep(config).splitlines()[-1].split(",")
        assert last[0] == "1"
        assert float(last[2]) == pytest.approx(0.5, abs=1e-12)

    def test_phaseflip_basis_state_constant_and_diff_tiny(self):
        config = SweepConfig(NoiseKind.PHASE_FLIP, ((1 + 0j, 0j),), steps=11)
        for row in run_sweep(config).splitlines()[1:]:
            cols = row.split(",")
            assert float(cols[2]) == pytest.approx(1.0, abs=1e-12)
            assert float(cols[5]) <= 1e-12

    def test_column_selection(self):
        config = SweepConfig(
            NoiseKind.PHASE_FLIP, ((1 + 0j, 0j),), steps=2, columns=("linear",)
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

    def test_grid_range_edges(self):
        SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), p_start=0.0, p_end=1.0)
        SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), p_start=-0.0, p_end=0.0)
        with pytest.raises(ValueError, match=r"^noise probability 1.0000000000000002 outside"):
            SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), p_end=1 + 2**-52)
        with pytest.raises(ValueError, match=r"^noise probability -5e-324 outside"):
            SweepConfig(NoiseKind.BIT_FLIP, ((1, 0),), p_start=-5e-324)

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
        import dataclasses

        import teleportsim.verify as verify_mod
        from teleportsim.analytic import PUBLISHED
        from teleportsim.exact import PolyP

        coeffs = list(PUBLISHED.u6.coefficients)
        coeffs[5] = coeffs[5] + 1
        monkeypatch.setattr(
            verify_mod, "PUBLISHED", dataclasses.replace(PUBLISHED, u6=PolyP(coeffs))
        )
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


# sha256 of each output file, recorded from the per-point pipeline before the
# batched one replaced it (x86-64, numpy 2.4 with its bundled OpenBLAS).  The
# CSV prints 17 significant digits, so any change in the last bit of a
# fidelity changes a hash.
GOLDEN_SHA256 = {
    "sweep-depolarizing-default": "93b4ad5dfe0036494718d390d93ba32edf4a4076b61d20766c7c7f627e5f2608",
    "sweep-depolarizing-complex": "9d0e33b4900de5c2298adb170ed2a9a370fa49019007dbfdd46a633bb7c98dd9",
    "curves-depolarizing": "145839f51d7ef39376ed1905e5e71408ebc467ccb331cc9bfdda09267671666d",
    "trace-depolarizing-p0": "2d5344aac398693555257dd7fbfa123bf0d62e9a1ed75d7d9e7b6f793b4fc355",
    "trace-depolarizing-p0.3": "ec0ea7dcd11a4e40bf3d85f1bf7869c95ba300276bd342e7c0fc3ce5611802c6",
    "sweep-bitflip-default": "985336a944877f8dbbe41081979301e7c358fe25b105f656bdfbf3e05efacd0c",
    "sweep-bitflip-complex": "484dc8f81b3b449d72ee6ea18f6877662b62586c184c74ef0c5e2a353b5b2827",
    "curves-bitflip": "b68bf71df5da7dc9ca20acd08352a33cebda4de547733d22bc047b30aacde803",
    "trace-bitflip-p0": "96d45d2d3d802699592422a6131b11f808f7c59cf2dccbbba7142962137c6e19",
    "trace-bitflip-p0.3": "28cff94cfa60f64c6fc67ebc22db92f44c8e624f3222308a794b4a59866910ee",
    "sweep-phaseflip-default": "a9951ef000d2dab38e7fa00bf5451ec1b231f1716cf14483dc3e2f8f4249a562",
    "sweep-phaseflip-complex": "a06954c3f3c1b111847a60da35453ed8de96962a5686ad024960f5b435e65e87",
    "curves-phaseflip": "db6559f2a0f5ba65f75597e5e6416d615b8503d043b102f32a446c2e932a2412",
    "trace-phaseflip-p0": "8580ae0573d5be638803b49e537527c135c860c603ae9b217db72c3812ce9644",
    "trace-phaseflip-p0.3": "cb991593ba1cb416ae1205b0b7d82f977560ba492e002b0e354f5a4bfeed0a3c",
}


# sha256 of the `verify --out report` outputs, run from the report's
# directory so that stdout names a relative path; recorded before the
# per-kind target builders were folded into one.
GOLDEN_VERIFY_SHA256 = {
    "report.txt": "ecddcede80fee18d8d5179caa1f1f1ae761fbc3829b1d4908255834d9113b488",
    "report.tsv": "ad759551dc61c81c16414b17640b1ade748713f166189ad1c112c05d1afa1bed",
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


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


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

    def test_traced_outputs_equal_untraced(self):
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
        # one batched run for the sweep's state, one for the trace
        assert tracer.calls["teleport.run_stages_from_initial"] == 2
        assert dict(tracer.runs) == {"depolarizing": 1, "bitflip": 1}
        assert tracer.run_conjugations == {"depolarizing": 4, "bitflip": 4}
        # each published-form column is computed once over the 11-point grid
        assert tracer.calls["analytic.fidelity_closed"] == 1
        assert tracer.calls["analytic.fidelity_linear"] == 1
        assert teleport.run_stages_from_initial is original
        assert [_run_cli(argv) for argv in argvs] == untraced

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
