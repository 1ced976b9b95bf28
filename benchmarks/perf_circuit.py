"""Circuit-engine perf harness: scalar vs batched on the Fig. 9 MC workload.

Times the two circuit engines on the paper's heaviest ensemble workloads:

``mc``
    Fig. 9 Monte-Carlo process variation — ``n_samples`` dies of an
    ``n_cells``-cell 2T-1FeFET row (plus the nominal and LSB reference
    reads).  ``scalar`` solves one read transient at a time; ``batched``
    stacks every die into one ``(B, n, n)`` Newton/backward-Euler solve.
``sweep``
    A Fig. 8-style grid: the full MAC ladder (0..n_cells) at every
    temperature corner, again one batched solve versus nested scalar loops.
``calibration``
    One 2T-1FeFET MAC unit's calibration on the default temperature grid
    (24 state-temperature levels and 3 threshold sensitivities), which a
    ``BitSerialMacUnit`` solves as one batched ensemble, against the same
    27 reads as scalar ``cell_read_transient`` calls.  Recorded, not
    gated on speed.

The ``mc`` and ``sweep`` engines must agree within the batched engine's
documented tolerance (``|dV| <= 1e-9 + 1e-7 |V|`` on outputs, see
``repro/circuit/batched.py``), and the calibration must equal its scalar
reference bit for bit, because every ADC threshold derives from it; the
harness exits nonzero otherwise, so the timing comparison is always
apples-to-apples.  Results land in ``BENCH_circuit.json`` — the repo's
circuit-engine perf trajectory.

Run::

    PYTHONPATH=src python benchmarks/perf_circuit.py               # full Fig. 9
    PYTHONPATH=src python benchmarks/perf_circuit.py --smoke       # CI-sized

This is a standalone script, not a pytest benchmark: it measures engine
strategies against each other, not experiment wall-times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.experiments import _array_bands
from repro.analysis.montecarlo import run_process_variation_mc
from repro.array import BitSerialMacUnit
from repro.array.mac_unit import CELL_STATES, SENSITIVITY_KEYS
from repro.cells import TwoTOneFeFETCell, cell_read_transient
from repro.constants import REFERENCE_TEMP_C
from repro.devices.variation import CellVariation

#: Documented scalar/batched equivalence tolerance (repro.circuit.batched).
RTOL = 1e-7
ATOL = 1e-9


def time_call(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def scalar_calibration(design, grid, delta=27e-3):
    """A unit's levels and sensitivities from 27 scalar read transients."""
    levels = np.array([
        [cell_read_transient(design, t, weight_bit=weight,
                             input_bit=inp).final_voltage("out")
         for t in grid]
        for weight, inp in CELL_STATES])
    base = float(np.interp(REFERENCE_TEMP_C, grid, levels[0]))
    sens = {which: (cell_read_transient(
                design, REFERENCE_TEMP_C,
                variation=CellVariation(**{which: delta}),
            ).final_voltage("out") - base) / delta
            for which in SENSITIVITY_KEYS}
    return levels, sens


def run(args):
    design = TwoTOneFeFETCell()
    print(f"workload: Fig. 9 MC with {args.samples} samples, "
          f"{args.cells}-cell row, dt={args.dt * 1e9:.2f} ns; "
          f"sweep grid {args.cells}-cell ladder at {args.temps} degC",
          flush=True)

    doc = {
        "workload": {
            "n_samples": args.samples, "n_cells": args.cells,
            "seed": args.seed, "dt_s": args.dt, "temps_c": list(args.temps),
        },
        "tolerance": {"rtol": RTOL, "atol": ATOL},
    }

    # -- Fig. 9 Monte-Carlo ------------------------------------------------
    mc_s, mc = {}, {}
    for engine in ("scalar", "batched"):
        mc_s[engine], mc[engine] = time_call(lambda e=engine: (
            run_process_variation_mc(design, n_samples=args.samples,
                                     n_cells=args.cells, seed=args.seed,
                                     dt=args.dt, engine=e)))
        print(f"mc {engine:>8}: {mc_s[engine]:8.2f} s "
              f"(max |err| {mc[engine].max_error:.4f}, "
              f"singular {mc[engine].singular_solves})", flush=True)

    err_diff = float(np.max(np.abs(mc["batched"].errors
                                   - mc["scalar"].errors)))
    err_bound = float(np.max(ATOL + RTOL * np.abs(mc["scalar"].errors)))
    nominal_diff = abs(mc["batched"].nominal_vacc - mc["scalar"].nominal_vacc)
    mc_equivalent = (err_diff <= err_bound
                     and nominal_diff <= ATOL
                     + RTOL * abs(mc["scalar"].nominal_vacc))
    mc_speedup = mc_s["scalar"] / mc_s["batched"]
    doc["mc"] = {
        "seconds": {k: round(v, 3) for k, v in mc_s.items()},
        "speedup_batched_vs_scalar": round(mc_speedup, 2),
        "max_error_scalar": mc["scalar"].max_error,
        "max_error_batched": mc["batched"].max_error,
        "max_abs_error_diff": err_diff,
        "nominal_vacc_abs_diff": nominal_diff,
        "equivalent_within_tolerance": mc_equivalent,
        "singular_solves": {k: v.singular_solves for k, v in mc.items()},
    }

    # -- Fig. 8-style temperature x MAC-level sweep ------------------------
    sweep_s, sweeps = {}, {}
    for engine in ("scalar", "batched"):
        sweep_s[engine], out = time_call(lambda e=engine: (
            _array_bands(design, args.temps, n_cells=args.cells, engine=e)))
        sweeps[engine] = out[0]
        print(f"sweep {engine:>5}: {sweep_s[engine]:8.2f} s", flush=True)
    sweep_diff = max(
        float(np.max(np.abs(sweeps["batched"][t] - sweeps["scalar"][t])))
        for t in args.temps)
    sweep_bound = max(
        float(np.max(ATOL + RTOL * np.abs(sweeps["scalar"][t])))
        for t in args.temps)
    sweep_equivalent = sweep_diff <= sweep_bound
    doc["sweep"] = {
        "seconds": {k: round(v, 3) for k, v in sweep_s.items()},
        "speedup_batched_vs_scalar": round(
            sweep_s["scalar"] / sweep_s["batched"], 2),
        "max_abs_vacc_diff": sweep_diff,
        "equivalent_within_tolerance": sweep_equivalent,
    }

    # -- MAC-unit calibration ----------------------------------------------
    cal_s = {}
    cal_s["ensemble"], unit = time_call(lambda: BitSerialMacUnit(design))
    calibration = unit.calibration()
    grid = calibration.temp_grid_c
    cal_s["scalar"], (levels, sens) = time_call(
        lambda: scalar_calibration(design, grid))
    cal_equal = (np.array_equal(calibration.levels, levels)
                 and all(calibration.von_sensitivity[k] == sens[k]
                         for k in SENSITIVITY_KEYS))
    for engine in ("scalar", "ensemble"):
        print(f"calibration {engine:>8}: {cal_s[engine]:8.2f} s", flush=True)
    doc["calibration"] = {
        "temps_c": list(grid),
        "reads": levels.size + len(sens),
        "seconds": {k: round(v, 3) for k, v in cal_s.items()},
        "speedup_ensemble_vs_scalar": round(
            cal_s["scalar"] / cal_s["ensemble"], 2),
        "max_abs_level_diff": float(np.max(np.abs(calibration.levels
                                                  - levels))),
        "bitwise_equal": cal_equal,
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nmc    batched vs scalar: {mc_speedup:.2f}x\n"
          f"sweep batched vs scalar: "
          f"{doc['sweep']['speedup_batched_vs_scalar']:.2f}x\n"
          f"calibration ensemble vs scalar: "
          f"{doc['calibration']['speedup_ensemble_vs_scalar']:.2f}x\n"
          f"equivalent within tolerance: mc={mc_equivalent} "
          f"sweep={sweep_equivalent}\n"
          f"calibration bitwise equal: {cal_equal}\n"
          f"wrote {out_path}")

    if not (mc_equivalent and sweep_equivalent):
        print("ERROR: engines disagree beyond the documented tolerance",
              file=sys.stderr)
        return 1
    if not cal_equal:
        print("ERROR: the ensemble calibration differs from its scalar "
              "reference", file=sys.stderr)
        return 1
    if args.min_speedup and mc_speedup < args.min_speedup:
        print(f"ERROR: batched-vs-scalar MC speedup {mc_speedup:.2f}x below "
              f"required {args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="scalar-vs-batched circuit engine timing")
    parser.add_argument("--samples", type=int, default=100,
                        help="Monte-Carlo sample count (paper: 100)")
    parser.add_argument("--cells", type=int, default=8,
                        help="row width (paper: 8)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dt", type=float, default=0.1e-9,
                        help="transient timestep in seconds")
    parser.add_argument("--temps", type=float, nargs="+",
                        default=(0.0, 27.0, 85.0),
                        help="sweep temperature corners (degC)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit nonzero if batched/scalar MC speedup is "
                             "below this")
    parser.add_argument("--out", default="BENCH_circuit.json")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload")
    args = parser.parse_args(argv)
    if args.smoke:
        args.samples, args.cells, args.temps = 6, 4, (27.0,)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
