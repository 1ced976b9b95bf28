"""Array-backend matmul perf harness: dense vs fused on a VGG-shaped MAC.

Times three execution strategies on the same 8-bit bit-serial matmul (the
workload shape of one Table-I VGG conv layer lowered via im2col):

``legacy``
    ``BitSerialMacUnit.matmul`` — programs the weights again on every
    call, the seed's behavior before the backend split.
``dense``
    Weight-stationary :class:`~repro.array.backend.DenseNumpyBackend`:
    program once, run the reference per-plane-pair kernel per batch.
``fused``
    Weight-stationary :class:`~repro.array.backend.FusedBitPlaneBackend`:
    program once, batched BLAS plane counts + cached per-temperature
    LUT decode per batch.  At ``bits_per_cell > 1`` it decodes each
    distinct chunk input pattern of the batch once instead of every
    (activation bit, row), so its time tracks the distinct patterns.

All three must produce bit-identical decoded outputs (the harness exits
nonzero if they do not), so the timing comparison is apples-to-apples.

A second sweep times the fused kernel at 1/2/3 magnitude bits per cell
(MLC weight encoding): the same weights decompose into ``ceil((bits-1)/b)``
digit planes per sign instead of ``bits - 1`` bit planes, so the decode
of every distinct pattern shrinks proportionally.  The 1-bit row of the
sweep must stay bit-identical to the binary fused baseline (asserted),
every multibit row must agree dense-vs-fused bitwise, and
``--min-mlc-speedup`` gates the 2-bit row's per-batch speedup over the
single-bit fused kernel.

A variation row programs the same weights at the paper's
sigma_VTH = 54 mV (its Fig. 9) and times the fused tile, served through
its certified guard band — the exact tile GEMM plus the uncertified
entries' corrections, from a per-pattern table where one fits the block
budget (the smoke shape) and from the per-instance decode otherwise (the
full shape) — against the dense backend at 27 and 85 degC.  Its outputs
must be bit-identical (asserted); its times are recorded, not gated.
Results land in ``BENCH_matmul.json`` — the repo's matmul perf
trajectory.

Run::

    PYTHONPATH=src python benchmarks/perf_matmul.py            # full shape
    PYTHONPATH=src python benchmarks/perf_matmul.py --smoke    # CI-sized

This is a standalone script, not a pytest benchmark: it measures kernel
strategies against each other, not experiment wall-times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.array import BehavioralMacConfig, BitSerialMacUnit, make_backend
from repro.cells import TwoTOneFeFETCell

#: Threshold-voltage variation of the variation row (the paper's Fig. 9)
#: and the temperatures it is served at.
VARIATION_SIGMA_V = 54e-3
VARIATION_TEMPS_C = (27.0, 85.0)


def time_batches(fn, batches):
    """Per-batch wall times of ``fn``; returns (best seconds, outputs).

    The reported figure is the *minimum* over batches — the standard
    noise-robust estimator for a deterministic kernel (anything above the
    minimum is scheduler/cache interference, not work), so the speedup
    gates don't flap on loaded CI hosts.
    """
    outs, times = [], []
    for x in batches:
        start = time.perf_counter()
        outs.append(fn(x))
        times.append(time.perf_counter() - start)
    return min(times), outs


def run(args):
    rng = np.random.default_rng(args.seed)
    wmax = 2 ** (args.bits - 1) - 1
    w = rng.integers(-wmax, wmax + 1, size=(args.k, args.cols))
    batches = [rng.integers(0, 2 ** args.bits, size=(args.rows, args.k))
               for _ in range(args.batches)]

    print(f"workload: {args.batches} batches of "
          f"({args.rows} x {args.k}) @ ({args.k} x {args.cols}), "
          f"{args.bits}-bit, T={args.temp_c} degC", flush=True)

    start = time.perf_counter()
    unit = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
        bits_x=args.bits, bits_w=args.bits, temp_grid_c=(0.0, 27.0, 85.0)))
    calibration_s = time.perf_counter() - start
    print(f"circuit calibration: {calibration_s:.2f}s", flush=True)

    dense = make_backend("dense", unit)
    fused = make_backend("fused", unit)

    program_s = {}
    programmed = {}
    for backend in (dense, fused):
        start = time.perf_counter()
        programmed[backend.name] = backend.program(w)
        program_s[backend.name] = time.perf_counter() - start

    variants = {
        "legacy": lambda x: unit.matmul(x, w, temp_c=args.temp_c),
        "dense": lambda x: dense.matmul(programmed["dense"], x,
                                        temp_c=args.temp_c),
        "fused": lambda x: fused.matmul(programmed["fused"], x,
                                        temp_c=args.temp_c),
    }

    per_batch_s, outputs = {}, {}
    warmup = batches[0][: max(1, args.rows // 8)]
    for name, fn in variants.items():
        fn(warmup)   # warm level caches / fused plane stacks off the clock
        elapsed, outs = time_batches(fn, batches)
        per_batch_s[name] = elapsed
        outputs[name] = outs
        print(f"{name:>6}: {per_batch_s[name] * 1e3:9.1f} ms/batch",
              flush=True)

    identical = all(
        np.array_equal(outputs["legacy"][i], outputs[name][i])
        for name in ("dense", "fused") for i in range(len(batches)))

    ideal = [x @ w for x in batches]
    exact_vs_ideal = all(np.array_equal(outputs["fused"][i], ideal[i])
                         for i in range(len(batches)))

    speedup = {
        "fused_vs_dense": per_batch_s["dense"] / per_batch_s["fused"],
        "fused_vs_legacy": per_batch_s["legacy"] / per_batch_s["fused"],
        "dense_ws_vs_legacy": per_batch_s["legacy"] / per_batch_s["dense"],
    }

    # -- multibit (MLC) sweep: the same workload at 1/2/3 bits/cell.
    # Units share the binary unit's circuit calibration (the level tables
    # do not depend on the encoding), so the sweep adds no transients.
    calibration = unit.calibration()
    mlc = {}
    mlc_identity_ok = True
    for b in args.mlc_bits:
        cfg = BehavioralMacConfig(bits_x=args.bits, bits_w=args.bits,
                                  temp_grid_c=(0.0, 27.0, 85.0),
                                  bits_per_cell=int(b))
        unit_b = BitSerialMacUnit(TwoTOneFeFETCell(), cfg,
                                  calibration=calibration)
        dense_b = make_backend("dense", unit_b)
        fused_b = make_backend("fused", unit_b)
        prog_d = dense_b.program(w)
        prog_f = fused_b.program(w)
        timings = {}
        outs_b = {}
        for name, backend, prog in (("dense", dense_b, prog_d),
                                    ("fused", fused_b, prog_f)):
            fn = lambda x: backend.matmul(prog, x, temp_c=args.temp_c)
            fn(warmup)
            elapsed, outs = time_batches(fn, batches)
            timings[name] = elapsed
            outs_b[name] = outs
        dense_fused_same = all(
            np.array_equal(outs_b["dense"][i], outs_b["fused"][i])
            for i in range(len(batches)))
        same_as_1bit = all(
            np.array_equal(outs_b["fused"][i], outputs["fused"][i])
            for i in range(len(batches))) if b == 1 else None
        exact = all(np.array_equal(outs_b["fused"][i], ideal[i])
                    for i in range(len(batches)))
        mlc[str(b)] = {
            "n_planes": prog_f.n_planes,
            "per_batch_s": {k: round(v, 6) for k, v in timings.items()},
            "speedup_vs_fused_1bit": round(
                per_batch_s["fused"] / timings["fused"], 2),
            "dense_fused_identical": dense_fused_same,
            "exact_at_reference": exact,
        }
        if b == 1:
            mlc[str(b)]["identical_to_binary_fused"] = same_as_1bit
        mlc_identity_ok &= dense_fused_same and (same_as_1bit is not False)
        print(f"mlc b={b}: {prog_f.n_planes:2d} planes, "
              f"{timings['fused'] * 1e3:9.1f} ms/batch fused "
              f"({per_batch_s['fused'] / timings['fused']:.2f}x vs 1-bit)",
              flush=True)

    # -- variation row: the same weights written with per-cell threshold
    # variation; the fused backend serves it through the guard band.
    unit_v = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
        bits_x=args.bits, bits_w=args.bits, temp_grid_c=(0.0, 27.0, 85.0),
        sigma_vth_fefet=VARIATION_SIGMA_V), calibration=calibration)
    dense_v, fused_v = make_backend("dense", unit_v), make_backend("fused",
                                                                   unit_v)
    programmed_v = dense_v.program(w)   # one die, read by both backends
    variation = {}
    variation_ok = True
    for temp in VARIATION_TEMPS_C:
        timings, outs_v = {}, {}
        for name, backend in (("dense", dense_v), ("fused", fused_v)):
            fn = lambda x: backend.matmul(programmed_v, x, temp_c=temp)
            fn(warmup)   # certify (and tabulate) off the clock
            timings[name], outs_v[name] = time_batches(fn, batches)
        band = fused_v.guard_band(programmed_v, temp)
        same = all(np.array_equal(outs_v["dense"][i], outs_v["fused"][i])
                   for i in range(len(batches)))
        variation_ok &= same
        variation[f"{temp:g}"] = {
            "per_batch_s": {k: round(v, 6) for k, v in timings.items()},
            "speedup_fused_vs_dense": round(
                timings["dense"] / timings["fused"], 2),
            "dense_fused_identical": same,
            "guard_band": band is not None,
            "uncertified": None if band is None else band.n_uncertified,
            "entries": None if band is None else int(band.certified.size),
            "correction_table": band is not None and band.table is not None,
        }
        print(f"sigma {VARIATION_SIGMA_V * 1e3:.0f} mV, {temp:g} degC: "
              f"{timings['fused'] * 1e3:9.1f} ms/batch fused, "
              f"{timings['dense'] * 1e3:9.1f} ms/batch dense, "
              f"identical: {same}", flush=True)

    doc = {
        "workload": {
            "rows": args.rows, "k": args.k, "cols": args.cols,
            "bits": args.bits, "batches": args.batches,
            "temp_c": args.temp_c, "seed": args.seed,
            "cells_per_row": unit.config.cells_per_row,
        },
        "calibration_s": round(calibration_s, 4),
        "program_s": {k: round(v, 6) for k, v in program_s.items()},
        "per_batch_s": {k: round(v, 6) for k, v in per_batch_s.items()},
        "speedup": {k: round(v, 2) for k, v in speedup.items()},
        "outputs_bit_identical": identical,
        "fused_exact_at_reference": exact_vs_ideal,
        "mlc": mlc,
        "variation": {"sigma_vth_fefet": VARIATION_SIGMA_V,
                      "temps": variation},
    }
    out_path = Path(args.out)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nfused vs dense:  {speedup['fused_vs_dense']:.2f}x\n"
          f"fused vs legacy: {speedup['fused_vs_legacy']:.2f}x\n"
          f"bit-identical outputs: {identical}\n"
          f"wrote {out_path}")

    if not identical:
        print("ERROR: backends disagree on decoded outputs", file=sys.stderr)
        return 1
    if not mlc_identity_ok:
        print("ERROR: MLC sweep broke bit-identity (dense vs fused, or "
              "1-bit vs binary baseline)", file=sys.stderr)
        return 1
    if not variation_ok:
        print("ERROR: variation row broke bit-identity (dense vs fused "
              "guard band)", file=sys.stderr)
        return 1
    if args.min_speedup and speedup["fused_vs_dense"] < args.min_speedup:
        print(f"ERROR: fused_vs_dense {speedup['fused_vs_dense']:.2f}x "
              f"below required {args.min_speedup}x", file=sys.stderr)
        return 1
    if args.min_mlc_speedup:
        row = mlc.get("2")
        if row is None:
            print("ERROR: --min-mlc-speedup needs 2 in --mlc-bits",
                  file=sys.stderr)
            return 1
        if row["speedup_vs_fused_1bit"] < args.min_mlc_speedup:
            print(f"ERROR: 2-bit MLC speedup "
                  f"{row['speedup_vs_fused_1bit']:.2f}x below required "
                  f"{args.min_mlc_speedup}x", file=sys.stderr)
            return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="dense-vs-fused array backend matmul timing")
    parser.add_argument("--rows", type=int, default=64,
                        help="activation rows per batch (im2col patches)")
    parser.add_argument("--k", type=int, default=1152,
                        help="inner dimension (3x3x128 VGG conv)")
    parser.add_argument("--cols", type=int, default=128,
                        help="output channels")
    parser.add_argument("--bits", type=int, default=8)
    parser.add_argument("--batches", type=int, default=3)
    parser.add_argument("--temp-c", type=float, default=27.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit nonzero if fused/dense is below this")
    parser.add_argument("--mlc-bits", type=int, nargs="+", default=(1, 2, 3),
                        metavar="B",
                        help="bits-per-cell values for the MLC sweep "
                             "(default 1 2 3)")
    parser.add_argument("--min-mlc-speedup", type=float, default=None,
                        help="exit nonzero if the 2-bit MLC row's fused "
                             "speedup over the 1-bit fused kernel is "
                             "below this")
    parser.add_argument("--out", default="BENCH_matmul.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows, args.k, args.cols, args.batches = 16, 144, 16, 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
