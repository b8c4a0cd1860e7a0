"""Span tracing of the pncsync modules from outside the program.

`Tracer.install` wraps every public module-level function of the pncsync
package and puts the wrapper wherever the function is bound: in its own
module and under every name another module took with `from ... import`.
Patching only the defining module would miss those calls.

Each call records a span (name, start, end, parent span, invocation id,
time covered by child spans, an amount and an input key).  Spans stay in
memory until `summarise` turns them into the per-layer metrics of a round.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "pncsync"
LAYERS = ("cli", "harness", "detection", "impairments", "mutual_info",
          "analysis", "chain", "mapping")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Work a span counts besides its time, by function; FUNCTION_METRICS names
# it (.symbols, .samples or .bytes).
AMOUNTS = {
    "detection.ml_xor_bits": lambda a, k: len(_arg(a, k, 0, "samples")),
    "impairments.mid_offset_frame": lambda a, k: len(_arg(a, k, 0, "a1")),
    "mutual_info.mi_time_unsync": lambda a, k: _arg(a, k, 2, "num_samples"),
    "mutual_info.mi_given_theta": lambda a, k: _arg(a, k, 2, "num_samples"),
    "harness.write_ber_csv": _file_bytes,
    "harness.write_mi_csv": _file_bytes,
    "harness.write_penalty_csv": _file_bytes,
}

# Functions whose distinct inputs are counted, for the unique_frac ratios.
KEYED = ("detection.build_hypotheses", "impairments.isi_taps")

# Metrics that sum several functions.
GROUPS = {
    "harness.write_csv": ("harness.write_ber_csv", "harness.write_mi_csv",
                          "harness.write_penalty_csv"),
}

FUNCTION_METRICS = (
    "cli.main.calls", "cli.main.self_s",
    "harness.run_ber.self_s", "harness.run_mi.self_s",
    "harness.write_csv.calls", "harness.write_csv.busy_s", "harness.write_csv.bytes",
    "detection.ml_xor_bits.calls", "detection.ml_xor_bits.busy_s",
    "detection.ml_xor_bits.symbols",
    "detection.threshold_bits.calls", "detection.threshold_bits.busy_s",
    "detection.build_hypotheses.calls", "detection.build_hypotheses.busy_s",
    "detection.build_hypotheses.unique_frac",
    "impairments.isi_taps.calls", "impairments.isi_taps.busy_s",
    "impairments.isi_taps.unique_frac",
    "impairments.mid_offset_frame.calls", "impairments.mid_offset_frame.busy_s",
    "impairments.mid_offset_frame.samples",
    "impairments.raised_cosine.calls", "impairments.raised_cosine.busy_s",
    "impairments.fold_phase.calls",
    "mutual_info.mi_time_unsync.calls", "mutual_info.mi_time_unsync.self_s",
    "mutual_info.mi_time_unsync.samples",
    "mutual_info.mi_given_theta.calls", "mutual_info.mi_given_theta.self_s",
    "mutual_info.mi_given_theta.samples",
    "mutual_info.mi_phase_unsync.calls",
    "analysis.emit_penalty_curves.self_s", "analysis.avg_sinr_penalty_db.self_s",
    "analysis.worst_sinr_penalty_db.self_s", "analysis.isi_variance.calls",
    "chain.make_plan.busy_s", "chain.serialize_plan.busy_s",
    "mapping.qpsk_modulate.calls",
)
LAYER_METRICS = tuple(f"layer.{m}.self_frac" for m in LAYERS)
# trace.spans counts the spans; the others come from the round clocks.
PROCESS_METRICS = ("process.cpu_s", "process.cpu_util", "trace.overhead_frac", "trace.spans")

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "unique_frac": "ratio",
          "symbols": "count", "samples": "count", "bytes": "bytes", "self_frac": "ratio",
          "cpu_s": "s", "cpu_util": "ratio", "overhead_frac": "ratio", "spans": "count"}


def unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def per_layer_names() -> tuple:
    """Every per-layer metric, in the order the benchmark reports them."""
    return FUNCTION_METRICS + LAYER_METRICS + PROCESS_METRICS


def _public_functions():
    """{function object: 'module.name'} for each public function of the package."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith(PACKAGE + "."):
            continue
        short = modname[len(PACKAGE) + 1:]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == modname and obj.__name__ == name):
                found[obj] = f"{short}.{name}"
    return found


class Tracer:
    """Records spans of the wrapped pncsync functions while installed."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, invocation, child_s, amount, key]
        self.invocation = -1
        self._stack = []
        self._patches = []   # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        amount = AMOUNTS.get(name)
        keyed = name in KEYED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation, 0.0, None,
                   (args, tuple(sorted(kwargs.items()))) if keyed else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = rec[2] = clock()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][5] += end - rec[1]
            if amount is not None:
                rec[6] = amount(args, kwargs)
            return out
        return traced

    def install(self):
        """Wrap every public pncsync function wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = _public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))
        return sorted(originals.values())

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def summarise(self) -> tuple[dict, dict]:
        """(per-layer metrics, calls by function) of the spans so far; forgets them.

        A layer's self_frac is its self time over the time top-level spans
        cover, so the layer shares of a round sum to 1.
        """
        if self._stack:
            raise RuntimeError("summarise called inside a traced call")
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "amount": 0, "keys": set()})
        top = 0.0
        for name, start, end, parent, _inv, child, amount, key in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["busy_s"] += end - start
            st["self_s"] += end - start - child
            if amount is not None:
                st["amount"] += amount
            if key is not None:
                st["keys"].add(key)
            if parent < 0:
                top += end - start
        for group, members in GROUPS.items():
            st = stats[group]
            for m in members:
                for field in ("calls", "busy_s", "self_s", "amount"):
                    st[field] += stats[m][field]
        out = {}
        for metric in FUNCTION_METRICS:
            fname, stat = metric.rsplit(".", 1)
            st = stats[fname]
            if stat == "unique_frac":
                out[metric] = len(st["keys"]) / st["calls"] if st["calls"] else 0.0
            elif stat in ("calls", "busy_s", "self_s"):
                out[metric] = st[stat]
            else:
                out[metric] = st["amount"]
        layer_self = defaultdict(float)
        for fname, st in stats.items():
            if fname not in GROUPS:
                layer_self[fname.split(".", 1)[0]] += st["self_s"]
        for layer, metric in zip(LAYERS, LAYER_METRICS):
            out[metric] = layer_self[layer] / top if top > 0 else 0.0
        out["trace.spans"] = len(self.spans)
        self.spans.clear()
        return out, {name: st["calls"] for name, st in stats.items()}

    def dump(self, path):
        """Write the spans recorded so far as CSV; parent is a row index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,invocation\n")
            for name, start, end, parent, inv, *_ in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{inv}\n")
