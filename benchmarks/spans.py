"""Span tracing for the benchmark, installed from outside the program.

`Tracer.install` wraps the public functions of each dt4calc layer.  Every
call becomes a span (id, name, start, end, parent id, thread id, thread CPU
seconds); the parent is the innermost traced call still open on the same
thread, so calls made on a worker thread of `--jobs` start a root span
there.  Spans stay in memory and are reduced to per-layer metrics once the
sample is over.

A layer's self time is the thread CPU time of its spans minus that of their
child spans.  CPU time, not wall time, because with `--jobs 2` a span's wall
time also holds the time its thread waited for the interpreter lock while
the other thread ran, which would count the same second twice.

Modules bind names with `from .taylor import ext_characters`, so wrapping
only the defining module would miss calls: the wrapper replaces every
attribute of every loaded `dt4calc` module that refers to the original.
Methods are replaced on their class, which every caller looks up.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (span name, defining module, attribute path); a target whose module is not
# loaded by the workload is left alone and reports zero calls
TARGETS = [
    ("partitions.enumerate_partitions", "partitions", "enumerate_partitions"),
    ("partitions.DPartition.to_ideal", "partitions", "DPartition.to_ideal"),
    ("taylor.ext_characters", "taylor", "ext_characters"),
    ("taylor.euler_character", "taylor", "euler_character"),
    ("exact.Laurent.mul", "exact", "Laurent.__mul__"),
    ("exact.LinForm.evaluate", "exact", "LinForm.evaluate"),
    ("localize.FixedPointData", "localize", "FixedPointData.__init__"),
    ("localize.vertex_character", "localize", "vertex_character"),
    ("localize.half_euler", "localize", "half_euler"),
    ("localize.contribution", "localize", "FixedPointData.contribution"),
    ("localize.vertex_oracle_check", "localize", "vertex_oracle_check"),
    ("localize.obstruction_crosscheck", "localize", "obstruction_crosscheck"),
    ("localize.cyclic_completion_report", "localize", "cyclic_completion_report"),
    ("localize.dt4_degree0_series", "localize", "dt4_degree0_series"),
    ("series.goettsche_series", "series", "goettsche_series"),
    ("series.convolution_oracle", "series", "convolution_oracle"),
    ("chow.liqin_case", "chow", "liqin_case"),
    ("chow.structure_sheaf_chi_check", "chow", "structure_sheaf_chi_check"),
    ("chow.vdim_ideal_cy4", "chow", "vdim_ideal_cy4"),
    ("chow.surface_obstruction_identity", "chow", "surface_obstruction_identity"),
    ("cli.main", "cli", "main"),
]

# names of the acceptance criteria in suite.CRITERIA, each traced as
# the span suite.check.<name>
CRITERIA = [
    "liqin-table", "chi-structure-sheaf", "vdim-law", "vertex-oracle",
    "weight-structure", "one-box-contribution", "cyclic-completion",
    "goettsche-series", "surface-identity", "orientation-flip", "determinism",
]


def _bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    """Records spans and per-call notes; both lists are only appended to,
    which is atomic under the interpreter lock, so worker threads share them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, note=None):
        spans, ids, local, notes = self.spans, self._ids, self._local, self.notes
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0, c0 = clock(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, threading.get_ident(), c1 - c0))
            if note is not None:
                notes.append((name, note(args, result)))
            return result
        return traced

    def install(self):
        """Wrap every target whose module the workload has loaded."""
        notes = {
            "taylor.ext_characters":
                lambda a, r: (a[0], a[1] if len(a) > 1 else "OZ,OZ"),
            "localize.FixedPointData":
                lambda a, r: (a[0].partition, len(a[0].e1_weights), len(a[0].e2_weights)),
            "localize.contribution": lambda a, r: _bits([r]),
            "localize.dt4_degree0_series":
                lambda a, r: _bits(r[0] if isinstance(r, tuple) else r),
        }
        for name, modname, path in TARGETS:
            mod = sys.modules.get(f"dt4calc.{modname}")
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], notes.get(name)))
            else:
                self._replace_everywhere(getattr(mod, attr),
                                         self.wrap(name, getattr(mod, attr), notes.get(name)))
        suite = sys.modules.get("dt4calc.suite")
        if suite is not None:
            for i, (number, crit, fn) in enumerate(suite.CRITERIA):
                if crit in CRITERIA:
                    wrapped = self.wrap(f"suite.check.{crit}", fn)
                    self._replace_everywhere(fn, wrapped)
                    suite.CRITERIA[i] = (number, crit, wrapped)

    @staticmethod
    def _replace_everywhere(orig, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != "dt4calc" and not modname.startswith("dt4calc."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        child = {}
        for sid, name, t0, t1, parent, tid, cpu in self.spans:
            child[parent] = child.get(parent, 0.0) + cpu
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        wall: dict[str, float] = {}
        for sid, name, t0, t1, parent, tid, cpu in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + cpu - child.get(sid, 0.0)
            wall[name] = wall.get(name, 0.0) + (t1 - t0)

        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for crit in CRITERIA:
            out[f"suite.check.{crit}.s"] = wall.get(f"suite.check.{crit}", 0.0)

        by_name: dict[str, list] = {}
        for name, payload in self.notes:
            by_name.setdefault(name, []).append(payload)

        ext = by_name.get("taylor.ext_characters", [])
        sizes = {}
        for ideal, _ in set(ext):
            sizes[ideal] = (len(ideal.gens), len(ideal.staircase()))
        out["taylor.generators.max"] = max((sizes[i][0] for i, _ in ext), default=0)
        out["taylor.cochain_dim.sum"] = sum((1 << sizes[i][0]) * sizes[i][1] for i, _ in ext)
        out["taylor.ext_characters.distinct_ratio"] = len(set(ext)) / len(ext) if ext else 0.0

        bits = by_name.get("localize.contribution", []) + by_name.get("localize.dt4_degree0_series", [])
        out["exact.coeff_bits.max"] = max(bits, default=0)

        fps = by_name.get("localize.FixedPointData", [])
        out["localize.FixedPointData.distinct_ratio"] = (
            len({p for p, _, _ in fps}) / len(fps) if fps else 0.0)
        out["localize.e1_weights.sum"] = sum(e1 for _, e1, _ in fps)
        out["localize.e2_weights.sum"] = sum(e2 for _, _, e2 in fps)

        partitions = sys.modules.get("dt4calc.partitions")
        out["partitions.points"] = (
            sum(len(level) for level in partitions._levels.values()) if partitions else 0)
        return out

    def dump(self, path: str):
        """Write the raw spans as JSON lines: id, name, start, end, parent,
        thread, thread CPU seconds."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
