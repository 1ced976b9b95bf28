"""Serving surface: batched sessions and sharded chip pools.

The back half of the compile-and-serve split (see :mod:`repro.compiler`):

* :class:`InferenceSession` — thread-safe request micro-batching over one
  :class:`~repro.compiler.chip.Chip`, with per-request ``temp_c``
  overrides on the weight-stationary tiles and per-request
  energy/latency/queueing telemetry; it is a one-replica
  :class:`ChipPool` behind the single-chip surface;
* :class:`ChipPool` — the fleet: N chip replicas of one compiled program
  (each an independent per-tile variation draw, optionally binned by
  operating temperature), an async scheduler with work-stealing queues
  and per-replica micro-batching, graceful drain/shutdown, and
  :class:`PoolStats` fleet telemetry including cross-replica logit
  divergence.  ``workers="processes"`` moves replica execution into
  worker processes over shared-memory program state
  (:mod:`repro.serve.shm`) — bit-identical logits, true multi-core
  parallelism; a killed worker surfaces as :class:`WorkerCrash` and its
  queued work re-dispatches to surviving replicas;
* :class:`ProgramRegistry` / :class:`MultiProgramPool` — named compiled
  programs (registered live, compiled, or restored from the
  content-addressed artifact store) served together behind one
  work-stealing scheduler with per-program routing and telemetry;
* :func:`serving_benchmark` / :func:`pool_benchmark` — the comparisons
  behind ``repro serve-bench`` / ``repro serve-pool-bench`` and
  ``BENCH_infer.json`` / ``BENCH_pool.json``.

Both :class:`InferenceSession` and :class:`ChipPool` also offer
``from_artifact(store, fingerprint)`` — millisecond warm bring-up from
a stored compiled artifact (see :mod:`repro.artifacts`).

Quick tour::

    from repro.compiler import MappingConfig, compile
    from repro.serve import ChipPool, InferenceSession

    program = compile(model, design, MappingConfig())
    with ChipPool(program, design, n_replicas=4,
                  temp_bins=(20.0, 60.0)) as pool:
        hot = pool.submit(images_a, temp_c=85.0)
        cold = pool.submit(images_b, temp_c=0.0)
        print(hot.result().telemetry.replica)
        print(pool.stats().modeled["throughput_img_per_s"])
        print(pool.divergence(images_a)["max_deviation"])
"""

from repro.serve.batching import (
    InferenceResult,
    InferenceTicket,
    MicroBatchQueue,
    RequestTelemetry,
    canonical_temp,
)
from repro.serve.bench import (
    build_serving_workload,
    pool_benchmark,
    report_benchmark,
    report_pool_benchmark,
    serving_benchmark,
)
from repro.serve.pool import (
    ChipPool,
    DriftSpec,
    MaintenancePolicy,
    PoolStats,
)
from repro.serve.shm import WorkerCrash
from repro.serve.registry import (
    MultiProgramPool,
    ProgramRegistry,
    RegisteredProgram,
)
from repro.serve.session import InferenceSession

__all__ = [
    "ChipPool",
    "DriftSpec",
    "InferenceResult",
    "InferenceSession",
    "InferenceTicket",
    "MaintenancePolicy",
    "MicroBatchQueue",
    "MultiProgramPool",
    "PoolStats",
    "ProgramRegistry",
    "RegisteredProgram",
    "RequestTelemetry",
    "WorkerCrash",
    "build_serving_workload",
    "canonical_temp",
    "pool_benchmark",
    "report_benchmark",
    "report_pool_benchmark",
    "serving_benchmark",
]
