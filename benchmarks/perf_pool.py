"""Pool-serving perf harness: sharded ChipPool vs a single session.

Serves the same VGG-shaped request stream (reduced VGG, every Conv/Dense
matmul lowered onto tiled subthreshold-FeFET arrays) two ways:

``session``
    One micro-batched ``InferenceSession`` (a one-replica ``ChipPool``)
    over one chip, in deterministic sync mode — the ``BENCH_infer.json``
    strategy, the single-chip baseline.  Every result must be
    **bit-identical** to its request's own ``chip.forward`` (the harness
    exits nonzero if not).
``pool``
    The full fleet: N chip replicas (each its own per-tile variation
    draw), work-stealing scheduler, per-replica micro-batching.

The fleet pass runs once per execution substrate (``--workers
threads``, ``processes``, or the default ``both``): host threads time-
slice under the GIL, process workers map the shared-memory program
state and compute truly in parallel on a multi-core host.  Modeled and
wall-clock speedups are always reported **side by side** — the modeled
fleet throughput is the hardware claim (N physical chips serve
micro-batches concurrently, so fleet serving time is the slowest
replica's modeled makespan), the wall number is what this host actually
delivered, and any wall speedup below 1.0x draws a loud warning.
``--min-modeled-speedup`` gates the modeled ratio (the full 4-replica
run records >= 2x in ``BENCH_pool.json``); ``--min-wall-speedup`` gates
the *process* fleet's measured wall speedup, auto-skipping with a
notice when ``os.cpu_count() < 2`` (a single core cannot overlap
worker processes).  Replica ``i`` carries the same frozen variation
draw on both substrates, so the harness also asserts the process fleet
is bit-identical to the threaded fleet replica-by-replica.

The document also records a **bring-up breakdown**: compilation (ms) vs
cold chip bring-up (tile programming + MAC-unit circuit calibration,
seconds) vs saving/loading a compiled artifact
(:mod:`repro.artifacts`).  ``--min-warm-speedup`` gates the
instant-serving claim — warm artifact load must be at least that many
times faster than the cold path (full runs read 31–48x on a shared
2-vCPU host, where the cold MAC-unit calibration is one batched circuit
transient; ``BENCH_pool.json`` records one), and the restored chip's
logits must be bit-identical.

Run::

    PYTHONPATH=src python benchmarks/perf_pool.py            # full stream
    PYTHONPATH=src python benchmarks/perf_pool.py --smoke    # CI-sized

The core measurement lives in :func:`repro.serve.bench.pool_benchmark`,
shared with the ``repro serve-pool-bench`` CLI subcommand.  This is a
standalone script, not a pytest benchmark.
"""

from __future__ import annotations

import argparse
import sys

from repro.compiler import MappingConfig
from repro.serve import pool_benchmark, report_pool_benchmark


def run(args):
    mapping = MappingConfig(tile_rows=args.tile_rows,
                            tile_cols=args.tile_cols,
                            backend=args.backend, seed=args.seed,
                            sigma_vth_fefet=args.sigma_vth_fefet)
    print(f"reduced VGG (width {args.width}, "
          f"{args.image_size}x{args.image_size} images), "
          f"{args.replicas} replicas, measuring ...", flush=True)
    doc = pool_benchmark(
        args.requests, args.images_per_request, mapping=mapping,
        n_replicas=args.replicas, temp_bins=args.temp_bins,
        max_batch_size=args.max_batch_size, temp_c=args.temp_c,
        width=args.width, image_size=args.image_size, seed=args.seed,
        workers=args.workers)
    return report_pool_benchmark(
        doc, min_modeled_speedup=args.min_modeled_speedup,
        min_warm_speedup=args.min_warm_speedup,
        min_wall_speedup=args.min_wall_speedup, out=args.out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="sharded ChipPool vs single-session serving timing")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests in the stream (default 64, or 16 "
                             "with --smoke)")
    parser.add_argument("--replicas", type=int, default=None,
                        help="chip replicas (default 4, or 2 with --smoke)")
    parser.add_argument("--images-per-request", type=int, default=1)
    parser.add_argument("--max-batch-size", type=int, default=8,
                        help="per-replica micro-batch budget (default 8)")
    parser.add_argument("--tile-rows", type=int, default=32)
    parser.add_argument("--tile-cols", type=int, default=16)
    parser.add_argument("--backend", default="fused")
    parser.add_argument("--width", type=int, default=4,
                        help="reduced-VGG channel width")
    parser.add_argument("--image-size", type=int, default=8)
    parser.add_argument("--temp-c", type=float, default=None)
    parser.add_argument("--temp-bins", type=float, nargs="+", default=None,
                        metavar="T", help="temperature bin edges (degC)")
    parser.add_argument("--sigma-vth-fefet", type=float, default=0.0,
                        metavar="V",
                        help="per-cell FeFET V_TH sigma (nonzero makes "
                             "every replica a distinct variation draw)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", default="both",
                        choices=("threads", "processes", "both"),
                        help="fleet execution substrate(s) to time "
                             "(default: both, side by side)")
    parser.add_argument("--min-wall-speedup", type=float, default=None,
                        help="exit nonzero if the process fleet's "
                             "measured wall speedup is below this "
                             "(auto-skipped with a notice on a "
                             "single-core host)")
    parser.add_argument("--min-modeled-speedup", type=float, default=None,
                        help="exit nonzero if the modeled fleet speedup "
                             "is below this")
    parser.add_argument("--min-warm-speedup", type=float, default=None,
                        help="exit nonzero if warm artifact bring-up is "
                             "not at least this many times faster than "
                             "cold compile+program+calibrate")
    parser.add_argument("--out", default="BENCH_pool.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload (only shrinks the "
                             "defaults; explicit flags win)")
    args = parser.parse_args(argv)
    if args.requests is None:
        args.requests = 16 if args.smoke else 64
    if args.replicas is None:
        args.replicas = 2 if args.smoke else 4
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
