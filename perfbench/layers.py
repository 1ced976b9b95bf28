"""Which entry points the traced run wraps, and the per-layer metrics.

Each per-layer metric is listed with the end-to-end metric it should
move and the workload where it should move it (see ``README.md``).
Times are host time per successfully served image unless the unit says
otherwise; counts come from the program's own telemetry.
"""

from __future__ import annotations

import statistics
import time

from perfbench.stats import failed_frac

#: (target, span name).  ``settle_batch``/``fail_batch`` are bound in two
#: modules (in-process and process-worker paths); both are wrapped.
TARGETS = (
    ("repro.array.backend:FusedBitPlaneBackend.matmul", "array.matmul"),
    ("repro.array.backend:FusedBitPlaneBackend.decode_lut",
     "array.decode_lut"),
    ("repro.array.mac_unit:BitSerialMacUnit.__init__", "array.calibrate"),
    ("repro.compiler.chip:Chip.forward", "compiler.forward"),
    ("repro.compiler.chip:Chip.matmul_codes", "compiler.matmul_codes"),
    ("repro.compiler.chip:Chip.build_replicas", "compiler.build_replicas"),
    ("repro.nn.functional:im2col", "nn.im2col"),
    ("repro.compiler.chip:quantize_tensor", "nn.quantize"),
    ("repro.serve.batching:settle_batch", "serve.settle_batch"),
    ("repro.serve.pool:settle_batch", "serve.settle_batch"),
    ("repro.serve.batching:fail_batch", "serve.fail_batch"),
    ("repro.serve.pool:fail_batch", "serve.fail_batch"),
)

#: name -> (unit, better).  The order is the order of the output.
PER_LAYER = {
    "array.matmul_ms": ("ms/img", "lower"),
    "array.matmul_calls": ("count/img", "lower"),
    "array.matmul_share": ("fraction", "lower"),
    "array.ns_per_row_op": ("ns", "lower"),
    "array.row_ops": ("count/img", "lower"),
    "array.lut_keys": ("count", "lower"),
    "array.decode_lut_ms": ("ms/img", "lower"),
    "array.calibrate_s": ("s", "lower"),
    "compiler.forward_ms": ("ms/img", "lower"),
    "compiler.self_ms": ("ms/img", "lower"),
    "compiler.compile_s": ("s", "lower"),
    "compiler.replicas_s": ("s", "lower"),
    "nn.im2col_ms": ("ms/img", "lower"),
    "nn.quantize_ms": ("ms/img", "lower"),
    "serve.queue_ms_p50": ("ms", "lower"),
    "serve.round_trip_ms_p50": ("ms", "lower"),
    "serve.overhead_ms_per_batch": ("ms", "lower"),
    "serve.batch_images_mean": ("img", "higher"),
    "serve.batches": ("count", "lower"),
    "serve.steals": ("count", "lower"),
    "serve.failed_batches": ("count", "lower"),
    "serve.failed_frac": ("fraction", "lower"),
    "serve.busy_s": ("s", "lower"),
    "serve.availability": ("fraction", "higher"),
    "fleet.check_health_ms": ("ms", "lower"),
    "fleet.maintain_ms": ("ms", "lower"),
    "fleet.reprograms": ("count", "lower"),
    "accuracy.logit_err": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


def install(recorder):
    """Wrap every target; observers collect decode keys and outcomes."""
    if not hasattr(recorder, "lut_keys"):
        recorder.lut_keys = []      # (t_ns, (temp, retention))
        recorder.outcomes = []      # (t_ns, replica, temp, retention, fwd_s)
        recorder.failures = []      # t_ns of each failed batch

    def lut(args, kwargs):
        retention = args[2] if len(args) > 2 else kwargs.get("retention")
        retention = None if retention in (None, 1.0) else float(retention)
        recorder.lut_keys.append((time.perf_counter_ns(),
                                  (float(args[1]), retention)))

    def settle(args, kwargs):
        batch, outcome = args[0], args[1]
        drift = getattr(outcome, "drift", None) or {}
        recorder.outcomes.append((
            time.perf_counter_ns(), kwargs.get("replica", 0),
            batch[0].temp_c, drift.get("retention"),
            getattr(outcome, "forward_s", 0.0)))

    def fail(args, kwargs):
        recorder.failures.append(time.perf_counter_ns())

    observers = {"array.decode_lut": lut, "serve.settle_batch": settle,
                 "serve.fail_batch": fail}
    for target, name in TARGETS:
        recorder.wrap(target, name, observe=observers.get(name))


def _in(window, t_ns):
    return window[0] <= t_ns < window[1]


def _process_lut_keys(outcomes, window):
    """Distinct (temp, retention) decode keys on worker processes.

    A batch decodes at the retention its replica reported after its
    previous batch (serve-then-age); each replica's first batch in the
    window has no known predecessor and is skipped.
    """
    last, keys = {}, set()
    for t_ns, replica, temp, retention, _ in outcomes:
        if not _in(window, t_ns):
            continue
        if replica in last:
            before = last[replica]
            keys.add((temp, None if before in (None, 1.0) else before))
        last[replica] = retention
    return len(keys)


def per_layer(recorder, *, setup_window, phase, stats, untraced_img_s,
              isolation, processes, meter, logit_err):
    """The per-layer metrics of one traced run (see :data:`PER_LAYER`)."""
    window = (phase.start_ns, phase.end_ns)
    rows = recorder.table(*window)
    setup = recorder.table(*setup_window)

    def total_ms(name, table=rows):
        return table.get(name, {}).get("total_ns", 0) / 1e6

    def self_ms(name, table=rows):
        return table.get(name, {}).get("self_ns", 0) / 1e6

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    ok = phase.ok
    images = max(sum(r.images for r in ok), 1)
    totals, measured = stats.totals, stats.measured
    row_ops = stats.modeled["energy_j"] / meter.energy_per_row_op_j
    forward_ms = total_ms("compiler.forward")
    matmul_ms = total_ms("array.matmul")
    if processes:
        lut_keys = _process_lut_keys(recorder.outcomes, window)
    else:
        lut_keys = len({key for t_ns, key in recorder.lut_keys
                        if _in(window, t_ns)})
    outcomes = [o for o in recorder.outcomes if _in(window, o[0])]
    worker_forward_s = sum(o[4] for o in outcomes)
    batches = totals["batches"]
    health = [(t1 - t0) / 1e6 for _, _, name, _, t0, t1 in recorder.spans
              if name == "fleet.check_health" and _in(window, t0)]
    maint = [(t1 - t0) / 1e6 for _, _, name, _, t0, t1 in recorder.spans
             if name == "fleet.maintain" and _in(window, t0)]
    failures = ([t for t in recorder.failures
                 if _in((isolation.start_ns, isolation.end_ns), t)]
                if isolation is not None else [])
    values = {
        "array.matmul_ms": matmul_ms / images,
        "array.matmul_calls": calls("array.matmul") / images,
        "array.matmul_share": matmul_ms / forward_ms if forward_ms else 0.0,
        "array.ns_per_row_op": matmul_ms * 1e6 / row_ops if row_ops else 0.0,
        "array.row_ops": round(row_ops) / max(totals["images"], 1),
        "array.lut_keys": lut_keys,
        "array.decode_lut_ms": total_ms("array.decode_lut") / images,
        "array.calibrate_s": total_ms("array.calibrate", setup) / 1e3,
        "compiler.forward_ms": forward_ms / images,
        "compiler.self_ms": (self_ms("compiler.forward")
                             + self_ms("compiler.matmul_codes")) / images,
        "compiler.compile_s": total_ms("compiler.compile", setup) / 1e3,
        "compiler.replicas_s": self_ms("compiler.build_replicas",
                                       setup) / 1e3,
        "nn.im2col_ms": total_ms("nn.im2col") / images,
        "nn.quantize_ms": total_ms("nn.quantize") / images,
        "serve.queue_ms_p50": _median_ms([r.queue_s for r in ok]),
        "serve.round_trip_ms_p50": _median_ms([r.round_trip_s for r in ok]),
        "serve.overhead_ms_per_batch": (
            (measured["busy_s"] - worker_forward_s) * 1e3 / batches
            if batches else 0.0),
        "serve.batch_images_mean": totals["images"] / max(batches, 1),
        "serve.batches": batches,
        "serve.steals": totals["steals"],
        "serve.failed_batches": len(failures),
        "serve.failed_frac": (
            failed_frac([(r.malformed, r.ok) for r in isolation.records])
            if isolation is not None else 0.0),
        "serve.busy_s": measured["busy_s"],
        "serve.availability": measured["availability"],
        "fleet.check_health_ms": statistics.fmean(health) if health else 0.0,
        "fleet.maintain_ms": statistics.fmean(maint) if maint else 0.0,
        "fleet.reprograms": totals["reprograms"],
        "accuracy.logit_err": logit_err,
        "trace.overhead_frac": 1.0 - phase.throughput_img_s / untraced_img_s,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else 0.0
