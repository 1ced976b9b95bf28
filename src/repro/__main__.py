"""Command-line experiment runner: ``python -m repro <command>`` (also
installed as the ``repro`` console script).

Commands
--------
list [--tag TAG]
    Show registered experiments with paper anchor, tags, and description.
run NAME [NAME ...] [options]
    Run experiments by name (and/or select them by ``--tag``).
all [options]
    Run the default experiment set (everything not tagged ``slow``).
infer [options]
    Compile a reduced VGG onto tiled arrays and serve a request stream
    through a micro-batched InferenceSession; reports per-temperature
    fidelity and energy/latency telemetry.  A front end over the
    ``infer`` experiment, so mapping knobs are fingerprinted into the
    result cache like any other run.
fleet-sim [options]
    Long-horizon serving under retention drift: replay a mixed hot/cold
    request stream through two temperature-binned ChipPool fleets —
    one unmanaged, one re-programmed whenever the divergence health
    probe flags a replica — and report agreement decay vs the managed
    fleet's rewrite-energy/availability bill.  A front end over the
    ``fleet-sim`` experiment; every drift and policy knob is
    fingerprinted into the result cache.
serve-bench [options]
    Time the batched InferenceSession against a naive per-request loop
    on the VGG-shaped serving workload (the ``BENCH_infer.json``
    harness); exits nonzero if outputs diverge or the speedup falls
    below ``--min-speedup``.
serve-pool-bench [options]
    Serve the same stream through a sharded ChipPool of ``--replicas``
    chips (the ``BENCH_pool.json`` harness), once per execution
    substrate (``--workers threads|processes|both``): asserts every
    single-session result is bit-identical to its per-request forward
    and the process fleet bit-identical to the threaded fleet
    replica-by-replica, reports wall-clock and modeled fleet throughput
    side by side per substrate plus the compile / cold-bring-up /
    warm-artifact breakdown, and exits nonzero if outputs diverge, the
    modeled fleet speedup falls below ``--min-modeled-speedup``, warm
    artifact bring-up misses ``--min-warm-speedup``, or the process
    fleet's wall speedup misses ``--min-wall-speedup`` (gate
    auto-skipped with a notice on single-core hosts).
tune [options]
    Search the mapping/serving design space (tile geometry, row width,
    bits per cell, backend, replica count, temperature bins) against an
    objective with feasibility floors, on the real compile-and-serve
    stack: one MAC-unit calibration per ``(cells_per_row,
    bits_per_cell, ...)`` group, groups fanned over ``--parallel``
    worker processes, candidate scores served from a content-addressed
    cache.  Prints the Pareto front and the chosen configuration;
    ``--json`` / ``--out`` / ``--md`` export the full result.
artifacts {list,save,load,gc} [options]
    Manage the content-addressed compiled-artifact store
    (``$REPRO_ARTIFACT_DIR`` or ``<cache>/artifacts``): ``save``
    compiles the benchmark workload and snapshots the programmed chip;
    ``load`` restores a chip by fingerprint (prefix) and optionally
    probes it; ``list`` shows entries with staleness against the running
    code version; ``gc`` removes stale entries (``--all`` clears).

Options (run / all)
-------------------
--parallel N     fan independent experiments over N worker processes
--seed S         master RNG seed threaded into seeded experiments
--temps T [T..]  override the temperature grid (degC) where accepted
--backend B      array backend (dense|fused) for experiments that accept one
--engine E       circuit engine (batched|scalar) for experiments that accept
                 one; batched stacks whole ensembles into one solve
--json           emit one JSON array of result documents on stdout (status
                 lines move to stderr, so the output pipes cleanly into jq)
--profile        append a per-experiment profile (wall time + cache-hit
                 flag); with --json the stdout document becomes
                 ``{"results": [...], "profile": [...]}``
--out DIR        write one ``<name>.json`` per experiment into DIR
--no-cache       bypass the on-disk result cache
--cache-dir DIR  cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)
--tag TAG        add every experiment carrying TAG to the run set

Examples
--------
::

    python -m repro list
    python -m repro run fig8 fig9 --seed 7
    python -m repro run fig1 fig3 --parallel 2 --json --out /tmp/r
    python -m repro all --tag slow       # default set plus the slow ones
    python -m repro --version
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__
from repro.runtime import (
    RunContext,
    default_set,
    list_experiments,
    names_by_tag,
    registry_names,
    run_many,
)
from repro.runtime.context import BACKEND_CHOICES, ENGINE_CHOICES

#: Backward-compatible view of the registry: name -> (callable, description).
#: Derived from the decorator-based runtime registry; kept so legacy callers
#: (tests, scripts) that did ``REGISTRY[name]`` keep working.
REGISTRY = {spec.name: (spec.fn, spec.description)
            for spec in list_experiments()}

#: The default run set, derived from registry tags (everything not ``slow``)
#: rather than a hardcoded name comparison.
DEFAULT_SET = default_set()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction experiments for the subthreshold-FeFET "
                    "CiM paper (DATE 2024).")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available experiments")
    list_p.add_argument("--tag", action="append", default=None,
                        help="only show experiments carrying this tag")

    def add_run_options(p):
        p.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes (default: serial)")
        p.add_argument("--seed", type=int, default=0,
                       help="master RNG seed (default: 0)")
        p.add_argument("--temps", type=float, nargs="+", default=None,
                       metavar="T", help="temperature grid override (degC)")
        p.add_argument("--backend", choices=sorted(BACKEND_CHOICES),
                       default=None,
                       help="array backend for experiments that accept one "
                            "(fused: batched bit-plane kernel, bit-identical "
                            "to dense)")
        p.add_argument("--engine", choices=sorted(ENGINE_CHOICES),
                       default=None,
                       help="circuit engine for experiments that accept one "
                            "(batched: whole ensembles in one stacked solve; "
                            "scalar: reference per-member path)")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a JSON array of result documents on stdout "
                            "(status lines go to stderr)")
        p.add_argument("--profile", action="store_true",
                       help="report per-experiment wall time and cache-hit "
                            "flag (with --json, stdout becomes an object "
                            "with 'results' and 'profile' keys)")
        p.add_argument("--out", type=Path, default=None, metavar="DIR",
                       help="write per-experiment JSON files into DIR")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
        p.add_argument("--cache-dir", type=Path, default=None, metavar="DIR",
                       help="result cache directory")
        p.add_argument("--tag", action="append", default=None,
                       help="also run every experiment carrying this tag")

    run_p = sub.add_parser("run", help="run experiments by name")
    run_p.add_argument("names", nargs="*", metavar="NAME",
                       help="experiment names (see `list`)")
    add_run_options(run_p)

    all_p = sub.add_parser("all", help="run the default experiment set")
    add_run_options(all_p)

    infer_p = sub.add_parser(
        "infer", help="compile-and-serve a reduced VGG with telemetry")
    infer_p.add_argument("--images", type=int, default=32,
                         help="images in the request stream (default 32)")
    infer_p.add_argument("--tile-rows", type=int, default=32,
                         help="physical tile rows (K dim, default 32)")
    infer_p.add_argument("--tile-cols", type=int, default=16,
                         help="physical tile columns (N dim, default 16)")
    infer_p.add_argument("--batch-size", type=int, default=8,
                         help="session micro-batch budget (default 8)")
    infer_p.add_argument("--sigma-vth-fefet", type=float, default=0.0,
                         metavar="V", help="per-cell FeFET V_TH sigma")
    infer_p.add_argument("--bits-per-cell", type=int, default=1,
                         metavar="B",
                         help="magnitude bits stored per cell (MLC weight "
                              "encoding; fewer digit planes per matmul, "
                              "default 1 = binary)")
    infer_p.add_argument("--replicas", type=int, default=1,
                         help="serve through a ChipPool of this many chip "
                              "replicas (default 1: single session)")
    infer_p.add_argument("--bin-edges", type=float, nargs="+",
                         default=None, metavar="T",
                         help="temperature bin edges (degC) assigning pool "
                              "replicas to operating-temperature bins")
    infer_p.add_argument("--workers", default="threads",
                         choices=("threads", "processes"),
                         help="pool execution substrate (processes map the "
                              "compiled program via shared memory; needs "
                              "--replicas >= 2)")
    add_run_options(infer_p)

    fleet_p = sub.add_parser(
        "fleet-sim",
        help="long-horizon retention drift vs divergence-triggered "
             "fleet maintenance")
    fleet_p.add_argument("--replicas", type=int, default=3,
                         help="fleet size (default 3; needs >= 2)")
    fleet_p.add_argument("--rounds", type=int, default=16,
                         help="serving rounds to simulate (default 16)")
    fleet_p.add_argument("--requests-per-round", type=int, default=6,
                         help="alternating hot/cold requests per round "
                              "(default 6)")
    fleet_p.add_argument("--time-per-image", type=float, default=600.0,
                         metavar="S",
                         help="compressed device-seconds of field aging "
                              "each served image stands for (default 600)")
    fleet_p.add_argument("--tau0", type=float, default=7e-3, metavar="S",
                         help="retention attempt time tau0 (default 7e-3; "
                              "intentionally far below the paper's "
                              "6.3e-11 s film so drift shows within the "
                              "simulated horizon)")
    fleet_p.add_argument("--activation-ev", type=float, default=0.5,
                         metavar="EV",
                         help="depolarization barrier E_a (default 0.5)")
    fleet_p.add_argument("--retention-beta", type=float, default=0.4,
                         metavar="B",
                         help="stretched-exponential exponent "
                              "(default 0.4, the paper-class film)")
    fleet_p.add_argument("--hot-temp", type=float, default=85.0,
                         metavar="T", help="hot-stream temp degC")
    fleet_p.add_argument("--cold-temp", type=float, default=None,
                         metavar="T",
                         help="cold-stream temp degC (default 27)")
    fleet_p.add_argument("--min-agreement", type=float, default=0.995,
                         help="maintenance trigger: probe argmax "
                              "agreement floor (default 0.995)")
    fleet_p.add_argument("--max-deviation", type=float, default=0.25,
                         help="maintenance trigger: normalized logit "
                              "deviation ceiling (default 0.25)")
    fleet_p.add_argument("--retention-floor", type=float, default=0.7,
                         help="maintenance trigger: remaining-"
                              "polarization floor, catches the reference "
                              "replica too (default 0.7)")
    fleet_p.add_argument("--probe-images", type=int, default=4,
                         help="images per health probe (default 4)")
    fleet_p.add_argument("--sigma-vth-fefet", type=float, default=0.054,
                         metavar="V", help="per-cell FeFET V_TH sigma")
    fleet_p.add_argument("--bits-per-cell", type=int, default=1,
                         metavar="B", help="magnitude bits per cell")
    add_run_options(fleet_p)

    bench_p = sub.add_parser(
        "serve-bench",
        help="batched session vs per-request loop (BENCH_infer harness)")
    bench_p.add_argument("--requests", type=int, default=None,
                         help="requests in the stream (default 64, "
                              "or 8 with --smoke)")
    bench_p.add_argument("--images-per-request", type=int, default=1)
    bench_p.add_argument("--max-batch-size", type=int, default=8)
    bench_p.add_argument("--tile-rows", type=int, default=32)
    bench_p.add_argument("--tile-cols", type=int, default=16)
    bench_p.add_argument("--backend", choices=sorted(BACKEND_CHOICES),
                         default="fused")
    bench_p.add_argument("--temp-c", type=float, default=None,
                         help="serve every request at this temperature")
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--min-speedup", type=float, default=None,
                         help="exit nonzero if batched/per-request falls "
                              "below this")
    bench_p.add_argument("--out", type=Path, default=None, metavar="FILE",
                         help="write the benchmark document to FILE")
    bench_p.add_argument("--smoke", action="store_true",
                         help="small CI-sized workload")

    pool_p = sub.add_parser(
        "serve-pool-bench",
        help="sharded ChipPool vs single session (BENCH_pool harness)")
    pool_p.add_argument("--requests", type=int, default=None,
                        help="requests in the stream (default 64, "
                             "or 8 with --smoke)")
    pool_p.add_argument("--replicas", type=int, default=None,
                        help="chip replicas in the pool (default 4, "
                             "or 2 with --smoke)")
    pool_p.add_argument("--images-per-request", type=int, default=1)
    pool_p.add_argument("--max-batch-size", type=int, default=8)
    pool_p.add_argument("--tile-rows", type=int, default=32)
    pool_p.add_argument("--tile-cols", type=int, default=16)
    pool_p.add_argument("--backend", choices=sorted(BACKEND_CHOICES),
                        default="fused")
    pool_p.add_argument("--temp-c", type=float, default=None,
                        help="serve every request at this temperature")
    pool_p.add_argument("--temp-bins", type=float, nargs="+", default=None,
                        metavar="T", help="temperature bin edges (degC)")
    pool_p.add_argument("--sigma-vth-fefet", type=float, default=0.0,
                        metavar="V",
                        help="per-cell FeFET V_TH sigma (nonzero makes "
                             "every replica a distinct variation draw)")
    pool_p.add_argument("--bits-per-cell", type=int, default=1,
                        metavar="B",
                        help="magnitude bits stored per cell (MLC weight "
                             "encoding; default 1 = binary)")
    pool_p.add_argument("--seed", type=int, default=0)
    pool_p.add_argument("--workers", default="both",
                        choices=("threads", "processes", "both"),
                        help="fleet execution substrate(s) to time "
                             "(default: both, reported side by side)")
    pool_p.add_argument("--min-wall-speedup", type=float, default=None,
                        help="exit nonzero if the process fleet's "
                             "measured wall speedup falls below this "
                             "(auto-skipped with a notice on a "
                             "single-core host)")
    pool_p.add_argument("--min-modeled-speedup", type=float, default=None,
                        help="exit nonzero if the modeled fleet speedup "
                             "falls below this")
    pool_p.add_argument("--min-warm-speedup", type=float, default=None,
                        help="exit nonzero if warm artifact bring-up is "
                             "not at least this many times faster than "
                             "cold compile+program+calibrate")
    pool_p.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write the benchmark document to FILE")
    pool_p.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload")

    tune_p = sub.add_parser(
        "tune",
        help="search the mapping/serving design space (Pareto front + "
             "chosen config)")
    grids = tune_p.add_argument_group("search grids")
    grids.add_argument("--tile-rows", type=int, nargs="+",
                       default=(64, 128), metavar="R",
                       help="tile row candidates (K dim; default 64 128)")
    grids.add_argument("--tile-cols", type=int, nargs="+",
                       default=(64, 128), metavar="C",
                       help="tile column candidates (default 64 128)")
    grids.add_argument("--cells-per-row", type=int, nargs="+",
                       default=(4, 8, 16), metavar="N",
                       help="row width candidates (default 4 8 16)")
    grids.add_argument("--bits-per-cell", type=int, nargs="+",
                       default=(1, 2), metavar="B",
                       help="MLC precision candidates (default 1 2)")
    grids.add_argument("--backends", nargs="+", default=("fused",),
                       choices=sorted(BACKEND_CHOICES),
                       help="array backend candidates (default: fused)")
    grids.add_argument("--replicas", type=int, nargs="+", default=(1, 2),
                       metavar="N",
                       help="pool replica-count candidates (default 1 2)")
    grids.add_argument("--temp-bins", type=float, nargs="+", default=None,
                       metavar="T",
                       help="also try this temperature-bin edge set "
                            "(pool placement policy; unbinned is always "
                            "searched)")
    wl = tune_p.add_argument_group("evaluation workload")
    wl.add_argument("--probe", type=int, default=8, metavar="N",
                    help="probe images per temperature (default 8)")
    wl.add_argument("--temps", type=float, nargs="+", default=None,
                    metavar="T",
                    help="evaluation temperatures in degC (default: 27; "
                         "accuracy is the worst corner)")
    wl.add_argument("--width", type=int, default=4,
                    help="reduced-VGG channel width (default 4)")
    wl.add_argument("--image-size", type=int, default=8)
    wl.add_argument("--sigma-vth-fefet", type=float, default=0.0,
                    metavar="V", help="per-cell FeFET V_TH sigma "
                    "(nonzero makes accuracy a real trade axis)")
    wl.add_argument("--sigma-vth-mosfet", type=float, default=0.0,
                    metavar="V")
    wl.add_argument("--seed", type=int, default=0)
    obj = tune_p.add_argument_group("objective")
    obj.add_argument("--objective", default="tops_per_watt",
                     choices=("tops_per_watt", "energy_nj_per_image",
                              "latency_s_per_image",
                              "throughput_img_per_s", "accuracy",
                              "area_cells"),
                     help="scalar objective ranked within the feasible "
                          "set (default: tops_per_watt)")
    obj.add_argument("--minimize", action="store_true",
                     help="minimize the objective instead of maximizing")
    obj.add_argument("--min-accuracy", type=float, default=None,
                     help="feasibility floor: worst-corner argmax "
                          "agreement with the float model")
    obj.add_argument("--min-throughput", type=float, default=None,
                     metavar="IMG_S",
                     help="feasibility floor: modeled fleet img/s")
    obj.add_argument("--max-latency-us", type=float, default=None,
                     metavar="US",
                     help="feasibility ceiling: modeled per-image "
                          "latency, microseconds")
    tune_p.add_argument("--estimator", default="table",
                        choices=("table", "circuit"),
                        help="component pricing: paper-calibrated table "
                             "or circuit-backed MAC-ladder calibration "
                             "per row-width group (default: table)")
    tune_p.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="calibration groups evaluated across N "
                             "worker processes (default: serial)")
    tune_p.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed score cache")
    tune_p.add_argument("--cache-dir", type=Path, default=None,
                        metavar="DIR", help="score cache root (default: "
                        "$REPRO_CACHE_DIR or ~/.cache/repro)")
    tune_p.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full result document as JSON on "
                             "stdout (status lines go to stderr)")
    tune_p.add_argument("--out", type=Path, default=None, metavar="FILE",
                        help="write the result document (JSON) to FILE")
    tune_p.add_argument("--md", type=Path, default=None, metavar="FILE",
                        help="write the markdown report to FILE")

    art_p = sub.add_parser(
        "artifacts",
        help="manage the compiled-artifact store (instant bring-up)")
    art_p.add_argument("--store", type=Path, default=None, metavar="DIR",
                       help="artifact store directory (default: "
                            "$REPRO_ARTIFACT_DIR or <cache>/artifacts)")
    art_sub = art_p.add_subparsers(dest="artifacts_command", required=True)

    art_sub.add_parser("list", help="list stored artifacts")

    save_p = art_sub.add_parser(
        "save", help="compile the serving workload and store its artifact")
    save_p.add_argument("--tile-rows", type=int, default=32)
    save_p.add_argument("--tile-cols", type=int, default=16)
    save_p.add_argument("--backend", choices=sorted(BACKEND_CHOICES),
                        default="fused")
    save_p.add_argument("--width", type=int, default=4,
                        help="reduced-VGG channel width")
    save_p.add_argument("--image-size", type=int, default=8)
    save_p.add_argument("--sigma-vth-fefet", type=float, default=0.0,
                        metavar="V", help="per-cell FeFET V_TH sigma")
    save_p.add_argument("--seed", type=int, default=0)

    load_p = art_sub.add_parser(
        "load", help="restore a chip from a stored artifact")
    load_p.add_argument("fingerprint",
                        help="program fingerprint (unique prefix ok)")
    load_p.add_argument("--probe", type=int, default=0, metavar="N",
                        help="serve N random probe images through the "
                             "restored chip")
    load_p.add_argument("--image-size", type=int, default=8,
                        help="probe image height/width (conv-input "
                             "models; default 8)")
    load_p.add_argument("--no-code-check", action="store_true",
                        help="skip the code-version compatibility check")

    gc_p = art_sub.add_parser(
        "gc", help="remove stale artifacts (saved by other code versions)")
    gc_p.add_argument("--all", action="store_true",
                      help="remove every artifact, not just stale ones")
    return parser


def _select_names(args, parser):
    if args.command == "all":
        names = list(DEFAULT_SET)
    else:
        names = list(args.names)
        unknown = [n for n in names if n not in REGISTRY]
        if unknown:
            parser.error(f"unknown experiment(s) {unknown}; "
                         f"choices: {sorted(REGISTRY)}")
    for tag in args.tag or ():
        tagged = names_by_tag(tag)
        if not tagged:
            parser.error(f"no experiment carries tag {tag!r}")
        names.extend(n for n in tagged if n not in names)
    if not names:
        parser.error("nothing to run: give experiment names or --tag")
    return names


def _cmd_list(args):
    specs = list_experiments()
    for tag in args.tag or ():
        specs = [s for s in specs if tag in s.tags]
    if not specs:
        print("no experiments match", file=sys.stderr)
        return 1
    width = max(len(s.name) for s in specs)
    awidth = max(len(s.anchor) for s in specs)
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.name:<{width}}  {spec.anchor:<{awidth}}  "
              f"{spec.description}  [{tags}]")
    return 0


def _cmd_run(args, parser, names=None, params=None):
    names = names if names is not None else _select_names(args, parser)
    ctx = RunContext(
        seed=args.seed,
        temps_c=tuple(args.temps) if args.temps else None,
        backend=args.backend,
        engine=args.engine,
        params=params or {},
        cache_dir=str(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    # With --json, stdout carries exactly one parseable JSON array; all
    # human-facing chatter moves to stderr so piping into jq etc. works.
    chatter = sys.stderr if args.as_json else sys.stdout

    results = run_many(names, ctx, parallel=args.parallel)
    for result in results:
        description = REGISTRY[result.name][1]
        print(f"\n=== {result.name}: {description} ===", file=chatter)
        if not args.as_json:
            print(result.report)
        if args.out is not None:
            path = result.save(args.out / f"{result.name}.json")
            print(f"[{result.name} json -> {path}]", file=chatter)
        status = (f"cache hit (first run took {result.duration_s:.1f}s)"
                  if result.cached else "fresh run")
        print(f"[{result.name} done in {result.duration_s:.1f}s - {status}]",
              file=chatter)
    # Per-experiment cost profile: what BENCH trajectories track over PRs.
    profile = [{"name": r.name, "duration_s": round(float(r.duration_s), 3),
                "cached": bool(r.cached)} for r in results]
    if args.as_json:
        docs = [r.to_dict() for r in results]
        payload = {"results": docs, "profile": profile} if args.profile \
            else docs
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.profile:
        width = max(len(p["name"]) for p in profile)
        print("\nprofile:", file=chatter)
        for p in profile:
            origin = "cache hit" if p["cached"] else "fresh"
            print(f"  {p['name']:<{width}}  {p['duration_s']:8.2f}s  {origin}",
                  file=chatter)
    hits = sum(1 for r in results if r.cached)
    print(f"\n{len(results)} experiment(s): {len(results) - hits} run, "
          f"{hits} cache hit(s); seed={ctx.seed}", file=chatter)
    return 0


def _cmd_infer(args, parser):
    """Front end over the ``infer`` experiment: every mapping *and
    scheduler/pool* knob travels through ``RunContext.params`` so the
    compiled program's and the serving fleet's configuration are
    fingerprinted into the result cache like any other run.  (A knob
    left out of ``params`` would silently serve stale cached results —
    the seed and backend ride the typed ``RunContext`` fields, which are
    fingerprinted too.)"""
    if args.bin_edges and args.replicas < 2:
        parser.error("--bin-edges requires --replicas >= 2 (temperature "
                     "bins are a pool placement policy)")
    if args.workers == "processes" and args.replicas < 2:
        parser.error("--workers processes requires --replicas >= 2 "
                     "(process workers are a pool substrate; a single "
                     "replica serves through an in-process session)")
    params = {
        "n_images": args.images,
        "tile_rows": args.tile_rows,
        "tile_cols": args.tile_cols,
        "batch_size": args.batch_size,
        "sigma_vth_fefet": args.sigma_vth_fefet,
        "n_replicas": args.replicas,
        "bin_edges": tuple(args.bin_edges) if args.bin_edges else None,
        "workers": args.workers,
        "bits_per_cell": args.bits_per_cell,
    }
    return _cmd_run(args, parser, names=["infer"], params=params)


def _cmd_fleet_sim(args, parser):
    """Front end over the ``fleet-sim`` experiment.  As with ``infer``,
    every drift-model, policy, and workload knob rides
    ``RunContext.params`` into the cache fingerprint — a retention
    curve cached under one tau0/E_a must never answer for another."""
    if args.replicas < 2:
        parser.error("--replicas must be >= 2 (fleet divergence compares "
                     "replicas against each other)")
    params = {
        "n_replicas": args.replicas,
        "n_rounds": args.rounds,
        "requests_per_round": args.requests_per_round,
        "time_per_image_s": args.time_per_image,
        "tau0_s": args.tau0,
        "activation_ev": args.activation_ev,
        "retention_beta": args.retention_beta,
        "hot_temp_c": args.hot_temp,
        "min_agreement": args.min_agreement,
        "max_deviation": args.max_deviation,
        "retention_floor": args.retention_floor,
        "probe_images": args.probe_images,
        "sigma_vth_fefet": args.sigma_vth_fefet,
        "bits_per_cell": args.bits_per_cell,
    }
    if args.cold_temp is not None:
        params["cold_temp_c"] = args.cold_temp
    return _cmd_run(args, parser, names=["fleet-sim"], params=params)


def _cmd_serve_bench(args):
    from repro.compiler import MappingConfig
    from repro.serve import report_benchmark, serving_benchmark

    # --smoke only shrinks the *default* workload; an explicit --requests
    # always wins.
    requests = args.requests if args.requests is not None \
        else (8 if args.smoke else 64)
    mapping = MappingConfig(tile_rows=args.tile_rows,
                            tile_cols=args.tile_cols,
                            backend=args.backend, seed=args.seed)
    doc = serving_benchmark(
        requests, args.images_per_request, mapping=mapping,
        max_batch_size=args.max_batch_size, temp_c=args.temp_c,
        seed=args.seed)
    return report_benchmark(doc, min_speedup=args.min_speedup,
                            out=args.out)


def _cmd_serve_pool_bench(args):
    from repro.compiler import MappingConfig
    from repro.serve import pool_benchmark, report_pool_benchmark

    # --smoke only shrinks the *defaults*; explicit flags always win.
    requests = args.requests if args.requests is not None \
        else (8 if args.smoke else 64)
    replicas = args.replicas if args.replicas is not None \
        else (2 if args.smoke else 4)
    mapping = MappingConfig(tile_rows=args.tile_rows,
                            tile_cols=args.tile_cols,
                            backend=args.backend, seed=args.seed,
                            sigma_vth_fefet=args.sigma_vth_fefet,
                            bits_per_cell=args.bits_per_cell)
    doc = pool_benchmark(
        requests, args.images_per_request, mapping=mapping,
        n_replicas=replicas, temp_bins=args.temp_bins,
        max_batch_size=args.max_batch_size, temp_c=args.temp_c,
        seed=args.seed, workers=args.workers)
    return report_pool_benchmark(
        doc, min_modeled_speedup=args.min_modeled_speedup,
        min_warm_speedup=args.min_warm_speedup,
        min_wall_speedup=args.min_wall_speedup, out=args.out)


def _cmd_tune(args):
    from repro.constants import REFERENCE_TEMP_C
    from repro.runtime.storage import atomic_write_text
    from repro.tune.tuner import TuneObjective, TuneWorkload, tune
    from repro.tune.space import TuneSpace

    space = TuneSpace(
        tile_rows=tuple(args.tile_rows),
        tile_cols=tuple(args.tile_cols),
        cells_per_row=tuple(args.cells_per_row),
        bits_per_cell=tuple(args.bits_per_cell),
        backends=tuple(args.backends),
        replicas=tuple(args.replicas),
        # The unbinned deployment is always in the grid; --temp-bins
        # adds one binned placement beside it.
        temp_bins=((None, tuple(args.temp_bins)) if args.temp_bins
                   else (None,)))
    workload = TuneWorkload(
        width=args.width, image_size=args.image_size, n_probe=args.probe,
        temps_c=tuple(args.temps) if args.temps else (REFERENCE_TEMP_C,),
        sigma_vth_fefet=args.sigma_vth_fefet,
        sigma_vth_mosfet=args.sigma_vth_mosfet, seed=args.seed)
    objective = TuneObjective(
        metric=args.objective, maximize=not args.minimize,
        min_accuracy=args.min_accuracy,
        min_throughput_img_per_s=args.min_throughput,
        max_latency_s_per_image=(args.max_latency_us * 1e-6
                                 if args.max_latency_us is not None
                                 else None))
    chatter = sys.stderr if args.as_json else sys.stdout
    result = tune(space, workload, objective,
                  estimator=args.estimator, parallel=args.parallel,
                  use_cache=not args.no_cache,
                  cache_dir=args.cache_dir,
                  progress=lambda msg: print(msg, file=chatter))
    if args.as_json:
        print(result.to_json())
    else:
        print(result.report())
    if args.out is not None:
        atomic_write_text(args.out, result.to_json())
        print(f"[tune json -> {args.out}]", file=chatter)
    if args.md is not None:
        atomic_write_text(args.md, result.markdown())
        print(f"[tune markdown -> {args.md}]", file=chatter)
    return 0 if result.best is not None else 1


def _cmd_artifacts(args):
    import time

    from repro.artifacts import ArtifactError, ArtifactStore

    store = ArtifactStore(args.store)

    if args.artifacts_command == "list":
        infos = store.entries()
        if not infos:
            print(f"no artifacts under {store.root}")
            return 0
        print(f"{len(infos)} artifact(s) under {store.root}:")
        for info in infos:
            age_s = max(time.time() - info.created, 0.0)
            flag = "  STALE" if info.stale else ""
            print(f"  {info.fingerprint[:16]}  {info.design_name:<20} "
                  f"{info.backend:<6} {info.n_layers:>2} layers "
                  f"{info.n_tiles:>4} tiles  {info.size_bytes / 1e3:8.0f} kB"
                  f"  {age_s / 3600:6.1f} h old{flag}")
        return 0

    if args.artifacts_command == "save":
        import numpy as np

        from repro.cells import TwoTOneFeFETCell
        from repro.compiler import Chip, MappingConfig, compile_model
        from repro.nn import build_vgg_nano

        design = TwoTOneFeFETCell()
        model = build_vgg_nano(width=args.width, image_size=args.image_size,
                               rng=np.random.default_rng(args.seed + 1))
        mapping = MappingConfig(tile_rows=args.tile_rows,
                                tile_cols=args.tile_cols,
                                backend=args.backend, seed=args.seed,
                                sigma_vth_fefet=args.sigma_vth_fefet)
        start = time.perf_counter()
        program = compile_model(model, design, mapping)
        chip = Chip(program, design)
        cold_s = time.perf_counter() - start
        info = store.save(chip)
        print(f"compiled + programmed in {cold_s:.2f}s; saved "
              f"{info.size_bytes / 1e3:.0f} kB artifact\n"
              f"  {info.fingerprint}\n  -> {info.path}")
        return 0

    if args.artifacts_command == "load":
        import numpy as np

        try:
            start = time.perf_counter()
            chip = store.load_chip(
                args.fingerprint,
                check_code_version=not args.no_code_check)
            load_s = time.perf_counter() - start
        except ArtifactError as error:
            print(f"ERROR: {error}", file=sys.stderr)
            return 1
        print(f"restored {type(chip.design).__name__} chip "
              f"({chip.program.n_tiles} tiles) in {load_s * 1e3:.1f} ms: "
              f"{chip.program.fingerprint[:16]}")
        if args.probe:
            from repro.nn import Conv2D

            first = chip.program.model.layers[0]
            if isinstance(first, Conv2D):
                shape = (args.image_size, args.image_size, first.c_in)
            else:
                shape = (first.params["w"].shape[0],)
            x = np.random.default_rng(0).normal(
                size=(args.probe, *shape))
            logits = chip.forward(x)
            print(f"probe: {args.probe} image(s) -> logits shape "
                  f"{logits.shape}, argmax "
                  f"{np.argmax(logits, axis=1).tolist()}")
        return 0

    if args.artifacts_command == "gc":
        removed = store.gc(everything=args.all)
        label = "artifact(s)" if args.all else "stale artifact(s)"
        print(f"removed {len(removed)} {label} from {store.root}")
        for fingerprint in removed:
            print(f"  {fingerprint[:16]}")
        return 0
    return 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "infer":
        return _cmd_infer(args, parser)
    if args.command == "fleet-sim":
        return _cmd_fleet_sim(args, parser)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "serve-pool-bench":
        return _cmd_serve_pool_bench(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "artifacts":
        return _cmd_artifacts(args)
    return _cmd_run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
