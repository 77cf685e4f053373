"""Span tracing around the package's module attributes, and the per-layer
metrics computed from the spans.

The package itself carries no timers yet, so the benchmark wraps the
functions it names in ``LAYERS`` for the duration of one traced command and
puts the originals back afterwards. A span is one call: its name, start,
end, the index of the enclosing span (-1 for a root), and an optional
number computed from the call's arguments (the compulsory bytes of the
optics operators). Spans stay in memory and are written when the run ends.

Spans, like every timing of the benchmark, are read from the process CPU
clock: on a shared virtual machine the wall clock also counts the time the
host runs other tenants. The tracer is single-threaded: traced commands run
with FPM_THREADS=1, so no wrapped function is ever entered from a worker
thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

# user + system CPU seconds of this process
clock = time.process_time

# complex128
_BYTES_PER_ELEMENT = 16


def _forward_bytes(args):
    """Input field plus the (L, p, p) output stack of SubApertureOps.forward."""
    ops, x = args[0], args[1]
    return _BYTES_PER_ELEMENT * (x.size + ops.L * ops.p * ops.p)


def _adjoint_bytes(args):
    """Input (L, p, p) stack plus the (q, q) output of SubApertureOps.adjoint_sum."""
    ops, fields = args[0], args[1]
    return _BYTES_PER_ELEMENT * (fields.size + ops.q * ops.q)


# (span name, defining module, attribute, rebind in every fpmdesign module
# that imported the same object by name, bytes-from-arguments)
LAYERS = [
    ("optics.forward", "fpmdesign.optics", "SubApertureOps.forward", False, _forward_bytes),
    ("optics.adjoint_sum", "fpmdesign.optics", "SubApertureOps.adjoint_sum", False, _adjoint_bytes),
    # only the bindings the optics operators call; metrics and phantoms keep
    # their own untraced cfft2/icfft2
    ("fourier.fft", "fpmdesign.optics", "cfft2", False, None),
    ("fourier.fft", "fpmdesign.optics", "icfft2", False, None),
    ("optics.simulate", "fpmdesign.optics", "simulate_stack", True, None),
    ("optics.simulate", "fpmdesign.optics", "simulate_singles", True, None),
    ("optics.noise", "fpmdesign.optics", "add_shot_noise", True, None),
    ("recon.reconstruct", "fpmdesign.recon", "reconstruct", True, None),
    ("recon.plan", "fpmdesign.recon", "solver_plan", True, None),
    ("recon.cost_grad", "fpmdesign.recon", "_cost_grad", True, None),
    ("training.example_grad", "fpmdesign.training", "_example_grad", True, None),
    ("training.example_loss", "fpmdesign.training", "_example_loss", True, None),
    ("training.project", "fpmdesign.training", "project", True, None),
    ("phantoms.make_dataset", "fpmdesign.phantoms", "make_dataset", True, None),
    ("metrics.psnr", "fpmdesign.metrics", "lf_psnr", True, None),
    ("metrics.psnr", "fpmdesign.metrics", "hf_psnr", True, None),
    ("formats.io", "fpmdesign.formats", "read_stack", True, None),
    ("formats.io", "fpmdesign.formats", "write_stack", True, None),
    ("formats.io", "fpmdesign.formats", "write_csv", True, None),
    ("formats.io", "fpmdesign.formats", "write_pgm", True, None),
    ("designs.io", "fpmdesign.designs", "load_design", True, None),
    ("designs.io", "fpmdesign.designs", "save_design", True, None),
]

# the span the benchmark opens around each cli.main(argv) command
COMMAND = "cli"
# untimed calls made only to fill the layer table
PROBE = "probe"

# Per-call milliseconds quoted in ROADMAP item 1 (ad-hoc, 2 cores,
# numpy 2.4.6), at p=21 and p=35; the layer table prints them alongside.
ADHOC_BASELINE_MS = {
    "forward": (1.6, 7.7),
    "adjoint_sum": (1.4, 5.6),
    "_cost_grad": (4.6, 15.0),
    "solver_plan": (95.0, 262.0),
    "_example_loss": (223.0, 786.0),
    "_example_grad": (760.0, 1731.0),
}
TABLE_ROWS = {
    "forward": "optics.forward",
    "adjoint_sum": "optics.adjoint_sum",
    "_cost_grad": "recon.cost_grad",
    "solver_plan": "recon.plan",
    "_example_loss": "training.example_loss",
    "_example_grad": "training.example_grad",
}


class Tracer:
    """In-memory span recorder. Spans are lists [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _enter(self, name, info=None) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, info])
        self._open.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = clock()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name, info(args) if info else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every attribute in LAYERS; restore the originals on exit."""
        patched = []
        try:
            for name, module_name, attr, everywhere, info in LAYERS:
                module = importlib.import_module(module_name)
                cls_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, cls_name) if cls_name else module
                original = getattr(owner, fn_name)
                wrapped = self._wrap(name, original, info)
                holders = [owner]
                if everywhere:
                    holders += [m for key, m in sorted(sys.modules.items())
                                if key.split(".")[0] == "fpmdesign" and m is not owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            patched.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def write_jsonl(self, path, origin: float):
        """One JSON object per span, times in CPU seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                rec = {"name": name, "start": start - origin, "end": end - origin,
                       "parent": parent}
                if info is not None:
                    rec["bytes_computed"] = info
                fh.write(json.dumps(rec) + "\n")


class _Index:
    """Durations, self times, children and roots of a span list."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.root = list(range(n))
        covered = [0.0] * n
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                self.children[parent].append(i)
                covered[parent] += self.dur[i]
                self.root[i] = self.root[parent]
        self.self_time = [d - c for d, c in zip(self.dur, covered)]

    def ancestor(self, i, name) -> int:
        j = self.spans[i][3]
        while j >= 0:
            if self.spans[j][0] == name:
                return j
            j = self.spans[j][3]
        return -1


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, unroll_T: int, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics over the spans of traced commands.

    Counts and self times are per command; ms_per_call is the mean duration
    of one call. A layer a workload never enters reports 0.
    """
    ix = _Index(spans)
    keep = [i for i in range(len(spans)) if spans[ix.root[i]][0] == COMMAND]
    commands = sum(1 for i in keep if spans[i][3] < 0)
    by_name: dict[str, list[int]] = {}
    for i in keep:
        by_name.setdefault(spans[i][0], []).append(i)

    def calls(name):
        return _ratio(len(by_name.get(name, [])), commands)

    def ms_per_call(name):
        idx = by_name.get(name, [])
        return _ratio(1e3 * sum(ix.dur[i] for i in idx), len(idx))

    def self_s(name):
        return _ratio(sum(ix.self_time[i] for i in by_name.get(name, [])), commands)

    def mb_computed(name):
        idx = by_name.get(name, [])
        return _ratio(sum(spans[i][4] for i in idx) / 1e6, len(idx))

    def per_parent(child, parent):
        parents = by_name.get(parent, [])
        inside = sum(1 for i in by_name.get(child, []) if ix.ancestor(i, parent) >= 0)
        return _ratio(inside, len(parents))

    solves = by_name.get("recon.reconstruct", [])
    plan_in_solves = sum(ix.dur[i] for i in by_name.get("recon.plan", [])
                         if ix.ancestor(i, "recon.reconstruct") >= 0)

    # reverse sweep = example gradient minus its plan and its first T cost
    # evaluations (the forward unroll); what remains is re-materialization
    # plus the adjoint steps
    grads = by_name.get("training.example_grad", [])
    reverse = 0.0
    for g in grads:
        kids = ix.children[g]
        plan = sum(ix.dur[k] for k in kids if spans[k][0] == "recon.plan")
        unroll = [k for k in kids if spans[k][0] == "recon.cost_grad"][:unroll_T]
        reverse += ix.dur[g] - plan - sum(ix.dur[k] for k in unroll)

    m = {
        "optics.forward.calls": (calls("optics.forward"), "count"),
        "optics.forward.ms_per_call": (ms_per_call("optics.forward"), "ms"),
        "optics.forward.self_s": (self_s("optics.forward"), "s"),
        "optics.forward.mb_computed": (mb_computed("optics.forward"), "MB"),
        "optics.adjoint_sum.calls": (calls("optics.adjoint_sum"), "count"),
        "optics.adjoint_sum.ms_per_call": (ms_per_call("optics.adjoint_sum"), "ms"),
        "optics.adjoint_sum.self_s": (self_s("optics.adjoint_sum"), "s"),
        "optics.adjoint_sum.mb_computed": (mb_computed("optics.adjoint_sum"), "MB"),
        "fourier.fft.calls": (calls("fourier.fft"), "count"),
        "fourier.fft.self_s": (self_s("fourier.fft"), "s"),
        "recon.plan.self_s": (self_s("recon.plan"), "s"),
        "recon.plan.share": (_ratio(plan_in_solves, sum(ix.dur[i] for i in solves)),
                             "fraction"),
        "recon.forward_per_solve": (per_parent("optics.forward", "recon.reconstruct"),
                                    "count"),
        "recon.reconstruct.self_s": (self_s("recon.reconstruct"), "s"),
        "recon.cost_grad.calls": (calls("recon.cost_grad"), "count"),
        "recon.cost_grad.ms_per_call": (ms_per_call("recon.cost_grad"), "ms"),
        "training.example_grad.calls": (calls("training.example_grad"), "count"),
        "training.example_grad.ms_per_call": (ms_per_call("training.example_grad"), "ms"),
        "training.forward_per_example": (
            per_parent("optics.forward", "training.example_grad"), "count"),
        "training.adjoint_per_example": (
            per_parent("optics.adjoint_sum", "training.example_grad"), "count"),
        "training.reverse.share": (_ratio(reverse, sum(ix.dur[g] for g in grads)),
                                   "fraction"),
        "training.example_loss.ms_per_call": (ms_per_call("training.example_loss"), "ms"),
        "training.project.self_s": (self_s("training.project"), "s"),
        "optics.simulate.self_s": (self_s("optics.simulate"), "s"),
        "optics.noise.self_s": (self_s("optics.noise"), "s"),
        "phantoms.make_dataset.self_s": (self_s("phantoms.make_dataset"), "s"),
        "metrics.psnr.self_s": (self_s("metrics.psnr"), "s"),
        "formats.io.self_s": (self_s("formats.io"), "s"),
        "designs.io.self_s": (self_s("designs.io"), "s"),
        "cli.self_s": (self_s(COMMAND), "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def layer_table(spans, patch_px: int) -> list[str]:
    """Per-call milliseconds (median over calls) of the ROADMAP item-1 rows,
    from command and probe spans, beside the ad-hoc baseline."""
    column = {21: 0, 35: 1}.get(patch_px)
    lines = [f"layer table p={patch_px}: CPU ms per call, median over n calls"
             + ("" if column is None else "; baseline = ROADMAP item 1 (ad hoc)")]
    for row, name in TABLE_ROWS.items():
        durs = [1e3 * (s[2] - s[1]) for s in spans if s[0] == name]
        if not durs:
            lines.append(f"  {row:<14} {'-':>10}  (not called by this workload)")
            continue
        line = f"  {row:<14} {statistics.median(durs):10.3f}  n={len(durs):<6d}"
        if column is not None:
            line += f" baseline {ADHOC_BASELINE_MS[row][column]:8.1f}"
        lines.append(line)
    return lines
