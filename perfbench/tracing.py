"""Spans around the calls into each beamtrain module, for the traced run.

:class:`Tracer` wraps every public function of each layer (the names in
the module's ``__all__``, or the public functions it defines when it has
none).  Modules import one another with ``from .x import y``, so each
wrapper is rebound wherever a ``beamtrain`` module global, or a dict held
in one, refers to the same function object.  Spans (name, start, end,
parent, operation id) are kept in memory and written out at the end.

The program is single-threaded: no layer waits on a queue, lock or other
process, so the per-layer metrics report busy time and work counts only.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# The modules in src/beamtrain/, one layer each.
LAYERS = (
    "array_model",
    "beam_coding",
    "channel",
    "packets",
    "protocols",
    "metrics",
    "experiment",
    "harness",
    "cli",
)

NO_WAITS_NOTE = (
    "waits: none measured; the program is single-threaded and no layer waits "
    "on a queue, lock or other process"
)

# Per-layer metric -> (unit, better, [(end-to-end metric, workload), ...]):
# which end-to-end metric a change in the layer metric should move.
LAYER_METRICS = {
    "array_model.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var"), ("runs_per_s", "quant_sweep")]),
    "array_model.array_factor_many.calls_per_op": ("count", "lower", [("runs_per_s", "power_var"), ("runs_per_s", "quant_sweep")]),
    "array_model.array_factor_many.macs_per_op": ("count", "lower", [("runs_per_s", "power_var"), ("runs_per_s", "quant_sweep")]),
    "array_model.are_orthogonal.calls_per_op": ("count", "lower", [("runs_per_s", "power_var"), ("runs_per_s", "quant_sweep")]),
    "array_model.quantize_phases.calls_per_op": ("count", "lower", [("runs_per_s", "quant_sweep")]),
    "beam_coding.self_ms_per_op": ("ms", "lower", [("runs_per_s", "quant_sweep"), ("runs_per_s", "power_var"), ("latency_p50_ms", "scheme_mix")]),
    "beam_coding.build_schedule.calls_per_op": ("count", "lower", [("runs_per_s", "quant_sweep"), ("runs_per_s", "power_var"), ("latency_p50_ms", "scheme_mix")]),
    # Distinct (beams, codes) inputs within an operation over calls.
    "beam_coding.build_schedule.distinct_ratio": ("ratio", "higher", [("runs_per_s", "quant_sweep"), ("runs_per_s", "power_var"), ("latency_p50_ms", "scheme_mix")]),
    "beam_coding.golay_pair.calls_per_op": ("count", "lower", [("runs_per_s", "power_var")]),
    "channel.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var"), ("latency_p50_ms", "scheme_mix")]),
    "channel.end_to_end_gain.calls_per_op": ("count", "lower", [("runs_per_s", "power_var")]),
    "channel.sample_channel.self_ms_per_op": ("ms", "lower", [("latency_p50_ms", "scheme_mix")]),
    "packets.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var")]),
    "packets.power_trace.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var")]),
    "packets.preamble_samples.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var")]),
    "protocols.self_ms_per_op": ("ms", "lower", [("runs_per_s", "quant_sweep"), ("latency_p50_ms", "scheme_mix"), ("latency_tail_ms", "scheme_mix")]),
    "protocols.run.calls_per_op": ("count", "lower", [("runs_per_s", "quant_sweep"), ("latency_p50_ms", "scheme_mix"), ("latency_tail_ms", "scheme_mix")]),
    # Detection failures over training runs in operations 0 .. DETECT_OPS-1:
    # an exact count on fixed inputs, which a refactor must leave unchanged.
    "protocols.detect_fail_ratio": ("ratio", "lower", []),
    "metrics.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var"), ("peak_rss_mb", "power_var")]),
    "metrics.power_ratio.samples_per_op": ("count", "lower", [("runs_per_s", "power_var"), ("peak_rss_mb", "power_var")]),
    "metrics.empirical_cdf.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var")]),
    "harness.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var")]),
    "harness.write_csv.self_ms_per_op": ("ms", "lower", [("runs_per_s", "power_var")]),
    "harness.write_csv.bytes_per_op": ("bytes", "lower", [("runs_per_s", "power_var")]),
    "experiment.parse_config.self_ms": ("ms", "lower", [("setup_s", "all")]),
    "cli.self_ms_per_op": ("ms", "lower", [("setup_s", "all"), ("runs_per_s", "power_var"), ("runs_per_s", "quant_sweep")]),
    # Share of the timed operations' wall time covered by root spans.
    "trace.span_coverage": ("ratio", "higher", []),
    # Traced runs_per_s over untraced runs_per_s of the same workload.
    "trace.overhead_ratio": ("ratio", "higher", []),
}


# protocols.detect_fail_ratio counts the first DETECT_OPS operations only,
# so that its base does not depend on how many operations a run completes.
DETECT_OPS = 200


def _macs(result, args) -> int:
    # weights x angles of one array_factor_many call
    return len(args[0]) * int(result.size)


def _schedule_key(result) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for v in result.beams:
        digest.update(v.entries.tobytes())
    for c in result.codes:
        digest.update(c.chips.tobytes())
    return digest.digest()


class Tracer:
    """In-memory span recorder whose wrappers are installed on demand."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # One entry per span: index into names, start and end in ns, index
        # of the parent span (-1 for a root) and operation id (-1 outside
        # the timed operations).  Flat arrays keep a long traced run small.
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        # (op id, digest of beams and codes) of every build_schedule call
        self.schedule_keys: set[tuple[int, bytes]] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[dict, object, object]] = []

    def _on_result(self, name: str, result, args) -> None:
        if self.op_id < 0:
            return
        if name == "array_model.array_factor_many":
            self.counts["array_model.array_factor_many.macs"] += _macs(result, args)
        elif name == "beam_coding.build_schedule":
            self.schedule_keys.add((self.op_id, _schedule_key(result)))
        elif name == "metrics.power_ratio":
            self.counts["metrics.power_ratio.samples"] += len(result)
        elif name == "harness.write_csv":
            self.counts["harness.write_csv.bytes"] += Path(result).stat().st_size
        elif name.startswith("protocols.run_") and self.op_id < DETECT_OPS:
            self.counts["protocols.trainings"] += 1
            self.counts["protocols.detect_fails"] += not result.success

    def _wrap(self, name: str, fn):
        name_idx = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            ops.append(-1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                ops[idx] = self.op_id
                stack.pop()
            self._on_result(name, result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function and rebind all references to it."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"beamtrain.{layer}")
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and v.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for n in names:
                fn = getattr(mod, n)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{n}", fn))

        def lookup(value):
            entry = wrappers.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        modules = [m for k, m in list(sys.modules.items()) if k == "beamtrain" or k.startswith("beamtrain.")]
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if (wrapper := lookup(value)) is not None:
                    self._patched.append((namespace, key, value))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if (wrapper := lookup(v)) is not None:
                            self._patched.append((value, k, v))
                            value[k] = wrapper

    def uninstall(self) -> None:
        """Put every original function back."""
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: span, op, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,name,start_ns,end_ns,parent\n")
            for i, (name_idx, start, end, parent, op) in enumerate(self._spans()):
                fh.write(f"{i},{op},{self.names[name_idx]},{start},{end},{parent}\n")

    def _spans(self):
        return zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op)

    def layer_metrics(self, num_ops: int, op_time_ns: int) -> dict[str, float]:
        """Per-layer metrics over the spans of operations 0 .. num_ops-1.

        Self time is a span's duration minus the time its child spans cover.
        ``trace.overhead_ratio`` needs the untraced run and is left out.
        """
        child_ns = [0] * len(self.span_start)
        for _, start, end, parent, _ in self._spans():
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        root_ns = 0
        setup_self_ns: Counter[str] = Counter()
        for i, (name_idx, start, end, parent, op) in enumerate(self._spans()):
            name = self.names[name_idx]
            own = end - start - child_ns[i]
            if op < 0:
                setup_self_ns[name] += own
                continue
            layer = name.split(".", 1)[0]
            self_ns[name] += own
            self_ns[layer] += own
            calls[name] += 1
            if parent < 0:
                root_ns += end - start

        ops = max(num_ops, 1)

        def ms_per_op(key: str) -> float:
            return self_ns[key] / 1e6 / ops

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {f"{layer}.self_ms_per_op": ms_per_op(layer) for layer in LAYERS}
        for fn in ("array_factor_many", "are_orthogonal", "quantize_phases"):
            out[f"array_model.{fn}.calls_per_op"] = calls[f"array_model.{fn}"] / ops
        out["array_model.array_factor_many.macs_per_op"] = (
            self.counts["array_model.array_factor_many.macs"] / ops
        )
        out["beam_coding.build_schedule.calls_per_op"] = calls["beam_coding.build_schedule"] / ops
        out["beam_coding.build_schedule.distinct_ratio"] = ratio(
            len(self.schedule_keys), calls["beam_coding.build_schedule"]
        )
        out["beam_coding.golay_pair.calls_per_op"] = calls["beam_coding.golay_pair"] / ops
        out["channel.end_to_end_gain.calls_per_op"] = calls["channel.end_to_end_gain"] / ops
        out["channel.sample_channel.self_ms_per_op"] = ms_per_op("channel.sample_channel")
        out["packets.power_trace.self_ms_per_op"] = ms_per_op("packets.power_trace")
        out["packets.preamble_samples.self_ms_per_op"] = ms_per_op("packets.preamble_samples")
        out["protocols.run.calls_per_op"] = calls["protocols.run"] / ops
        out["protocols.detect_fail_ratio"] = ratio(
            self.counts["protocols.detect_fails"], self.counts["protocols.trainings"]
        )
        out["metrics.power_ratio.samples_per_op"] = self.counts["metrics.power_ratio.samples"] / ops
        out["metrics.empirical_cdf.self_ms_per_op"] = ms_per_op("metrics.empirical_cdf")
        out["harness.write_csv.self_ms_per_op"] = ms_per_op("harness.write_csv")
        out["harness.write_csv.bytes_per_op"] = self.counts["harness.write_csv.bytes"] / ops
        out["experiment.parse_config.self_ms"] = setup_self_ns["experiment.parse_config"] / 1e6
        out["trace.span_coverage"] = ratio(root_ns, op_time_ns)
        return out
