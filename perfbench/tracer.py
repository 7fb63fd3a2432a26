"""Trace harness: spans and counts around calls into each teleportsim layer.

The program is not changed.  Each probe replaces the module attribute
through which the program's own callers reach a public function (the
binding: ``teleport.conjugate_by``, ``channels.apply_to_qubit``,
``PolyP.__mul__``, ...) with a wrapper, and :meth:`Tracer.uninstall` puts
the originals back.

Three kinds of probe:

- a *span* records name, start, end, parent span and op id.  Its self time
  is its duration minus the time covered by its child spans.  The hot
  ``linalg.conjugate_by`` and ``channels.apply_to_qubit`` spans, which run
  tens of times per pipeline point, are timed and counted but left out of
  the span log, so the log stays small;
- a *leaf* is a span around a function that calls no other probe, such as
  ``PolyP.__mul__``; it is timed and counted with less overhead, and is not
  logged;
- a *count* only counts calls (``Operator.__init__``, ``tensor``,
  ``PolyP.__add__``).

A span may also carry a stage tag (``teleport.gate_stage`` and so on).  The
tag is the pipeline stage the call implements.  A tagged span adds its self
time to the function name and its whole duration, children included, to the
tag: stages never nest, so a stage's self time is the full time of its calls.  Logged spans stay in
memory until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path

RUN = "teleport.run_stages_from_initial"

_UNLOGGED = {"channels.apply_to_qubit", "linalg.conjugate_by"}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # open spans, innermost last: [name, seconds covered by child spans]
        self._stack: list[list] = []
        self._name_ids: dict[str, int] = {"": 0}
        self._log = {
            "name": array("i"),
            "tag": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "op": array("q"),
        }
        self._log_top = -1
        self.op_id = 0
        # linalg.conjugate_by calls made inside standard pipeline runs, by kind
        self.run_conjugations: dict[str, int] = defaultdict(int)
        self.runs: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- probes ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._name_ids)
        return ident

    def span(self, name: str, fn, tag: str | None = None, tag_parent: str | None = None):
        """Wrap ``fn`` in a span; ``tag`` applies only under a ``tag_parent`` span."""
        stack, calls, self_s, log = self._stack, self.calls, self.self_s, self._log
        clock = time.perf_counter
        logged = name not in _UNLOGGED
        name_id = self._id(name)
        tag_id = self._id(tag) if tag else 0

        def wrapper(*args, **kwargs):
            span_tag = tag
            if tag_parent is not None and not (stack and stack[-1][0] == tag_parent):
                span_tag = None
            parent = self._log_top
            if logged:
                index = self._log_top = len(log["start"])
                log["name"].append(name_id)
                log["tag"].append(tag_id if span_tag else 0)
                log["start"].append(0.0)
                log["end"].append(0.0)
                log["parent"].append(parent)
                log["op"].append(self.op_id)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += own
                if span_tag:
                    calls[span_tag] += 1
                    self_s[span_tag] += duration
                if logged:
                    log["start"][index] = start
                    log["end"][index] = end
                    self._log_top = parent

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap ``fn``, which must call no other probe, as an unlogged span."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pipeline_run(self, fn, default_assignment):
        """Span around one pipeline run that also attributes its conjugations.

        Only runs with the standard correction wiring are attributed: the
        alternate wirings that `verify` tries skip one correction branch.
        """
        traced = self.span(RUN, fn)

        def wrapper(rho1, noise, noise_enabled=True, assignment=None):
            before = self.calls["linalg.conjugate_by"]
            try:
                return traced(rho1, noise, noise_enabled, assignment)
            finally:
                if assignment in (None, default_assignment):
                    kind = noise.kind.value
                    self.runs[kind] += 1
                    self.run_conjugations[kind] += self.calls["linalg.conjugate_by"] - before

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Probe every binding the program's callers use."""
        from teleportsim import channels, cli, exact, linalg, teleport, verify

        span, leaf, count = self.span, self.leaf, self.count
        stage = {
            "build_initial": {"tag": "teleport.initial_stage"},
            "conjugate_by": {"tag": "teleport.gate_stage", "tag_parent": RUN},
            "apply_layer": {"tag": "teleport.noise_stage"},
            "measure_and_correct": {"tag": "teleport.measure_stage"},
        }
        probes = [
            # cli: the command layer and what it calls directly
            (cli, "build_parser", leaf, "cli.build_parser"),
            (cli, "cmd_trace", span, "cli.cmd_trace"),
            (cli, "run_sweep", span, "cli.run_sweep"),
            (cli, "render_line_chart", leaf, "charts.render_line_chart"),
            (cli, "fidelity_closed", leaf, "analytic.fidelity_closed"),
            (cli, "fidelity_linear", leaf, "analytic.fidelity_linear"),
            (cli, "hermitian_eigenvalues", leaf, "linalg.hermitian_eigenvalues"),
            (cli, "run_verification", span, "verify.run_verification"),
            (cli, "run_stages", span, "teleport.run_stages"),
            # teleport: the pipeline and its four stage groups
            (teleport, "run_stages", span, "teleport.run_stages"),
            (teleport, "build_initial", span, "teleport.build_initial"),
            (teleport, "conjugate_by", span, "linalg.conjugate_by"),
            (teleport, "apply_layer", span, "channels.apply_layer"),
            (teleport, "measure_and_correct", span, "teleport.measure_and_correct"),
            (teleport, "fidelity_with", span, "linalg.fidelity_with"),
            (teleport, "tensor", count, "linalg.tensor"),
            # channels
            (channels, "apply_to_qubit", span, "channels.apply_to_qubit"),
            (channels, "conjugate_by", span, "linalg.conjugate_by"),
            (channels, "tensor", count, "linalg.tensor"),
            # verify and exact
            (verify, "extract_transfer_map", span, "exact.extract_transfer_map"),
            (verify, "run_pipeline_symbolic", span, "exact.run_pipeline_symbolic"),
            (exact, "run_pipeline_symbolic", span, "exact.run_pipeline_symbolic"),
            (verify, "apply_layer", span, "channels.apply_layer"),
            (verify, "fidelity_with", span, "linalg.fidelity_with"),
            (verify, "tensor", count, "linalg.tensor"),
            # scalar and dense-array layers
            (linalg.Operator, "__init__", count, "linalg.operator_init"),
            (exact.PolyP, "__mul__", leaf, "exact.polyp_mul"),
            (exact.PolyP, "__rmul__", leaf, "exact.polyp_mul"),
            (exact.PolyP, "__add__", count, "exact.polyp_add"),
            (exact.PolyP, "__radd__", count, "exact.polyp_add"),
        ]
        for owner, attr, make, name in probes:
            extra = stage.get(attr, {}) if owner is teleport else {}
            self._patch(owner, attr, make(name, getattr(owner, attr), **extra))
        self._patch(
            teleport,
            "run_stages_from_initial",
            self.pipeline_run(teleport.run_stages_from_initial, teleport.DEFAULT_ASSIGNMENT),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._log["start"])

    def write(self, path: Path) -> None:
        """Save the logged spans as a .npz of parallel arrays.

        ``name`` and ``tag`` index the ``names`` table (0 is no tag);
        ``parent`` indexes the span arrays (-1 is an op's root span).
        """
        import numpy as np

        names = sorted(self._name_ids, key=self._name_ids.get)
        np.savez(path, names=np.array(names), **{k: np.asarray(v) for k, v in self._log.items()})
