"""Measurement loop, tracing hooks and metric definitions.

A run repeats rounds until `seconds` have passed: one set-up, one compress
pass, restores of its container for RESTORE_SECONDS and one artifact pass
(hashing, plus `devolve unpack`/`eval` on evolve-dense). Every round repeats
the same operations on the same inputs, so every round must write the same
bytes.
Every timed operation runs between two host-speed probes (`hostspeed`) and
is reported in reference seconds: its wall time over the probes' slowdown.
`setup_s`, `compress_s` and `restore_ms` are medians over the run's set-ups,
compress passes and restores. `peak_rss_mb` is read after the last round,
before the checks allocate anything.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback

from devolve import datasets, evolution, nn, packing, quantize, sparsity

import checks
import hostspeed
from tracing import Tracer
from workloads import WORKLOADS

RESTORE_SECONDS = 0.5
# Passes of each probe part (~1 ms a pass) and the probe parts that correct
# each timed phase. A run has only a few set-ups and compress passes, so one
# slow probe must not move them. A restore is the pure-Python Huffman decoder
# above all: in a slow host state the three-part slowdown left evolve-dense
# and evolve-conv restores 14% and 17% above their fast-state values, the
# Python part alone 5% and 5%.
PROBES = {"setup": (15, tuple(hostspeed.PARTS)), "compress": (15, tuple(hostspeed.PARTS)),
          "restore": (3, ("python",))}

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("compress_s", "s", "lower", 0.25),
    ("restore_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("total_ratio", "x", "higher", 0.05),
    ("payload_ratio", "x", "higher", 0.1),
    ("accuracy", "fraction", "higher", 0.02),
    ("divergence", "mse", "lower", 0.25),
    ("quant_error", "mean_abs", "lower", 0.15),
]

# name, unit, better, phase, span names, statistic, scale. Phase totals are
# per occurrence of the phase (per set-up, per traced round, per restore);
# "median" is the median inclusive time of one call; "calls" counts calls per
# traced round. Entries without spans come from the run's artifacts.
PER_LAYER = [
    ("datasets.generate_s", "s", "lower", "setup", ("datasets.synthetic_dataset",), "total", 1),
    ("nn.dense.forward_ms", "ms", "lower", "compress", ("nn.Dense.apply",), "median", 1e3),
    ("nn.dense.backward_ms", "ms", "lower", "compress", ("nn.Dense.grads",), "median", 1e3),
    ("nn.conv2d.forward_ms", "ms", "lower", "compress", ("nn.Conv2D.apply",), "median", 1e3),
    ("nn.conv2d.backward_ms", "ms", "lower", "compress", ("nn.Conv2D.grads",), "median", 1e3),
    ("nn.max_pool.forward_ms", "ms", "lower", "compress", ("nn.MaxPool2D.apply",), "median", 1e3),
    ("nn.max_pool.backward_ms", "ms", "lower", "compress", ("nn.MaxPool2D.grads",), "median", 1e3),
    ("nn.forward_calls", "count", "lower", "compress", ("nn.forward",), "calls", 1),
    ("nn.sgd_steps", "count", "lower", "compress", ("nn.sgd_step",), "calls", 1),
    ("nn.sgd_step_ms", "ms", "lower", "compress", ("nn.sgd_step",), "median", 1e3),
    ("nn.io_ms", "ms", "lower", "compress", ("nn.save_network", "nn.load_network"), "total", 1e3),
    ("sparsity.apply_mask_calls", "count", "lower", "compress", ("sparsity.apply_mask",), "calls", 1),
    ("sparsity.apply_mask_s", "s", "lower", "compress", ("sparsity.apply_mask",), "total", 1),
    ("evolution.sweeps", "count", "lower", None, (), None, 1),
    ("evolution.trials", "count", "lower", "compress", ("evolution.evaluate_candidate",), "calls", 1),
    ("evolution.propose_s", "s", "lower", "compress", ("evolution.propose_candidates",), "total", 1),
    ("evolution.retrain_s", "s", "lower", "compress", ("evolution.retrain",), "total", 1),
    ("evolution.evaluate_s", "s", "lower", "compress", ("evolution.evaluate_trials",), "total", 1),
    ("evolution.trial_ms", "ms", "lower", "compress", ("evolution.evaluate_candidate",), "median", 1e3),
    ("evolution.new_zero_ratio", "fraction", "higher", None, (), None, 1),
    ("quantize.levels_2b_s", "s", "lower", "compress", ("quantize.optimal_levels.2b",), "total", 1),
    ("quantize.levels_4b_s", "s", "lower", "compress", ("quantize.optimal_levels.4b",), "total", 1),
    ("quantize.levels_8b_s", "s", "lower", "compress", ("quantize.optimal_levels.8b",), "total", 1),
    ("quantize.round_ms", "ms", "lower", "compress", ("quantize.quantize",), "median", 1e3),
    ("quantize.network_s", "s", "lower", "compress", ("quantize.quantize_network",), "total", 1),
    ("quantize.table_error_8b", "mean_abs", "lower", None, (), None, 1),
    ("packing.encode_ms", "ms", "lower", "compress", ("packing.pack_model",), "median", 1e3),
    ("packing.parse_ms", "ms", "lower", "restore", ("packing.PackedModel.from_bytes",), "median", 1e3),
    ("packing.mask_decode_ms", "ms", "lower", "restore", ("packing.decode_mask",), "total", 1e3),
    ("packing.huffman_decode_ms", "ms", "lower", "restore", ("packing.huffman_decode",), "total", 1e3),
    ("packing.codes", "count", "lower", None, (), None, 1),
    ("packing.payload_bits", "bits", "lower", None, (), None, 1),
    ("packing.mask_bytes", "bytes", "lower", None, (), None, 1),
    ("packing.lut_bytes", "bytes", "lower", None, (), None, 1),
    ("packing.bits_per_code", "bits/code", "lower", None, (), None, 1),
    ("packing.entropy_bits_per_code", "bits/code", "lower", None, (), None, 1),
    ("cli.train_s", "s", "lower", "setup", ("cli.train",), "total", 1),
    ("cli.sparsify_s", "s", "lower", "compress", ("cli.sparsify",), "total", 1),
    ("cli.quantize_s", "s", "lower", "compress", ("cli.quantize",), "total", 1),
    ("cli.pack_s", "s", "lower", "compress", ("cli.pack",), "total", 1),
    ("cli.unpack_s", "s", "lower", "after", ("cli.unpack",), "total", 1),
    # traced compress_s, traced minus untraced compress_s, and the part of
    # the traced compress_s that no span below the compress phase covers
    ("trace.compress_s", "s", "lower", None, (), None, 1),
    ("trace.overhead_s", "s", "lower", None, (), None, 1),
    ("trace.unattributed_s", "s", "lower", None, (), None, 1),
]


def install_tracing(tracer: Tracer):
    """Wrap the public functions each per-layer metric reads. Names imported
    into another module (evolution.apply_mask) are wrapped there too."""
    for module, label, names in (
            (datasets, "datasets", ("synthetic_dataset", "subset")),
            (nn, "nn", ("forward", "backward", "sgd_step", "save_network", "load_network")),
            (sparsity, "sparsity", ("apply_mask", "save_mask", "load_mask")),
            (evolution, "evolution", ("run", "propose_candidates", "evaluate_trials",
                                      "evaluate_candidate", "select_and_commit", "retrain",
                                      "write_history")),
            (quantize, "quantize", ("quantize_network", "build_spec", "quantize")),
            (packing, "packing", ("pack_model", "encode_layer", "unpack_model",
                                  "decode_layer", "decode_mask", "huffman_decode",
                                  "compression_report"))):
        for name in names:
            tracer.wrap(module, name, f"{label}.{name}")
    tracer.wrap(evolution, "apply_mask", "sparsity.apply_mask")
    for cls in (nn.Dense, nn.Conv2D, nn.MaxPool2D):
        for method in ("apply", "grads"):
            tracer.wrap(cls, method, f"nn.{cls.__name__}.{method}")
    for method in ("from_bytes", "to_bytes"):
        tracer.wrap(packing.PackedModel, method, f"packing.PackedModel.{method}")
    tracer.wrap(quantize, "optimal_levels",
                lambda density, bits: f"quantize.optimal_levels.{bits}b")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans, grouped by the benchmark phase each
    span ran under."""
    by_id = {sid: (name, parent) for sid, name, _, _, parent in tracer.spans}

    def phase_of(sid):
        name, parent = by_id[sid]
        while parent:
            name, parent = by_id[parent]
        return name.removeprefix("bench.")

    phases = {}
    for sid, name, start, end, _ in tracer.spans:
        phases.setdefault((phase_of(sid), name), []).append(end - start)
    occurrences = {p: len(phases.get((p, f"bench.{p}"), [])) or 1
                   for p in ("setup", "compress", "restore", "after")}
    out = {}
    for name, _, _, phase, spans, stat, scale in PER_LAYER:
        if not spans:
            continue
        durations = [d for span in spans for d in phases.get((phase, span), [])]
        if not durations:
            out[name] = 0.0
        elif stat == "median":
            out[name] = statistics.median(durations) * scale
        elif stat == "calls":
            out[name] = len(durations) / occurrences[phase]
        else:
            out[name] = sum(durations) / occurrences[phase] * scale
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Run one workload; returns the record (metrics, timings, hashes,
    operation counts and the first failure, if any)."""
    tracer = Tracer()
    if trace:
        install_tracing(tracer)
    # <phase>_s in reference seconds, <phase>_wall_s as measured, <phase>_end
    # on the perf_counter clock of the probes' "at"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": 0, "failed": 0, "error": None,
              **{f"{phase}{kind}": [] for phase in ("setup", "compress", "restore")
                 for kind in ("_s", "_wall_s", "_end")},
              "compress_traced": [], "setup_hashes": [], "round_hashes": []}
    speed = hostspeed.SpeedLog()
    record["probes"] = speed.probes

    def op(phase, fn):
        record["attempted"] += 1

        def call():
            with tracer.span(f"bench.{phase}"):
                return fn()
        if phase == "after":
            return speed.untimed(call)
        result, wall, reference = speed.timed(call, *PROBES[phase])
        record[f"{phase}_end"].append(time.perf_counter())
        record[f"{phase}_wall_s"].append(wall)
        record[f"{phase}_s"].append(reference)
        return result

    try:
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 1
            tracer.enabled = traced
            # A fresh workload object per round, the previous one dropped
            # first: a round that still held the previous round's arrays ran
            # at another speed (evolve-conv's compress pass alternated 2.3
            # and 2.6 s from round to round).
            wl = None
            wl = WORKLOADS[workload](seed, workdir, tracer)
            op("setup", wl.setup)
            op("compress", wl.compress)
            record["compress_traced"].append(traced)
            block = time.perf_counter()
            while time.perf_counter() - block < RESTORE_SECONDS:
                op("restore", wl.restore)
            record["round_hashes"].append(op("after", wl.finish_round))
            record["setup_hashes"].append(wl.setup_hashes())
            rounds += 1
            if time.perf_counter() - start >= seconds and (rounds >= 2 or not trace):
                break
        tracer.enabled = False
        record["peak_rss_mb"] = peak_rss_mb()
        checks.check_same_hashes(record["setup_hashes"], "set-up")
        checks.check_same_hashes(record["round_hashes"], "round")
        record["quality"] = wl.check()
    except Exception:  # noqa: BLE001 -- a failed operation or check ends the run
        record["failed"] += 1
        record["error"] = traceback.format_exc()
        return record
    finally:
        tracer.enabled = False

    untraced = [t for t, tr in zip(record["compress_wall_s"], record["compress_traced"])
                if not tr]
    if trace:
        traced = [t for t, tr in zip(record["compress_wall_s"], record["compress_traced"])
                  if tr]
        selfs = tracer.self_times()
        compress_self = [selfs[sid] for sid, name, *_ in tracer.spans
                         if name == "bench.compress"]
        metrics = layer_values(tracer)
        metrics.update(wl.layer_metrics())
        metrics["trace.compress_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.unattributed_s"] = statistics.median(compress_self)
        record["tracer"] = tracer
        values = {name: metrics.get(name, 0.0) for name, *_ in PER_LAYER}
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        q = record["quality"]
        values = {"setup_s": statistics.median(record["setup_s"]),
                  "compress_s": statistics.median(record["compress_s"]),
                  "restore_ms": statistics.median(record["restore_s"]) * 1e3,
                  "peak_rss_mb": record["peak_rss_mb"],
                  **{k: q[k] for k in ("total_ratio", "payload_ratio", "accuracy",
                                       "divergence", "quant_error")}}
        units = {name: unit for name, unit, *_ in END_TO_END}
    record["metrics"] = {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}
    return record
