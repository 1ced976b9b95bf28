"""Experiment implementations: one function per figure/table of the paper.

Every function is self-contained, deterministic (seeded), and returns a
plain dict of measured quantities plus a preformatted ``report`` string.
The benchmark suite calls these and prints the reports; EXPERIMENTS.md
records the measured values against the paper's.

Each function self-registers with the unified runtime via the
``@experiment`` decorator (name, paper anchor, tags); the decorator leaves
the function untouched, so direct calls keep these legacy signatures and
plain-dict returns.  Typed configuration (seed, temperature grid,
cell/array overrides) arrives through
:class:`repro.runtime.context.RunContext`, which maps onto the ``seed`` /
``temps_c`` / ``n_cells`` / ``design`` keyword parameters declared below.

Index (see DESIGN.md section 4):

===========  =====================================================
fig1         FeFET I_D-V_G at both states across temperature
fig3         1FeFET-1R cell output-current fluctuation (sat / sub)
fig4         1FeFET-1R subthreshold array: overlapping MAC bands
fig7         2T-1FeFET cell fluctuation
fig8         2T-1FeFET array: MAC bands, NMR, energy, TOPS/W
fig9         Monte-Carlo process variation (100 runs, 54 mV)
table1       Table-I VGG structure + MAC count
table2       cross-technology summary with measured This-Work row
mac_errors   decode-error rate vs temperature (array failure metric)
===========  =====================================================
"""

from __future__ import annotations

import numpy as np

from repro.analysis.comparisons import build_table2
from repro.analysis.montecarlo import run_process_variation_mc
from repro.analysis.reporting import format_ranges, format_series, format_table
from repro.array import MacRow
from repro.array.mac_unit import BehavioralMacConfig, BitSerialMacUnit
from repro.cells import (
    FeFET1RCell,
    TwoTOneFeFETCell,
    cell_output_current,
    cell_read_transient,
)
from repro.constants import REFERENCE_TEMP_C, temperature_grid
from repro.devices.fefet import FeFET
from repro.metrics import (
    MacOutputRange,
    classification_accuracy,
    max_fluctuation,
    nmr_min,
    nmr_values,
    ranges_overlap,
)
from repro.metrics.fluctuation import fluctuation_profile
from repro.runtime.registry import experiment

#: The three-point temperature set used by array experiments (extremes +
#: reference); cell experiments use denser grids.
CORNER_TEMPS_C = (0.0, REFERENCE_TEMP_C, 85.0)


def _calibration_grid(grid, temps_c):
    """A MAC unit's calibration grid: ``grid`` joined with the requested
    temperatures, so every one of them reads simulated levels (a unit
    refuses temperatures outside its grid)."""
    return tuple(sorted({*map(float, grid), *map(float, temps_c)}))


# ----------------------------------------------------------------------
# Fig. 1 — device characteristics
# ----------------------------------------------------------------------
@experiment("fig1", anchor="Fig. 1", tags=("device", "temperature", "fast"),
            description="FeFET I-V characteristics across temperature")
def fig1_fefet_characteristics(temps_c=CORNER_TEMPS_C, points=40):
    """FeFET I_D-V_G curves for both programmed states across temperature."""
    vgs = np.linspace(0.0, 1.8, points)
    curves = {}
    fefet = FeFET()
    for state, programmer in (("low-vth", fefet.program_low_vth),
                              ("high-vth", fefet.program_high_vth)):
        programmer()
        for temp in temps_c:
            ids = np.array([fefet.ids(1.0, v, 0.0, temp) for v in vgs])
            curves[(state, temp)] = ids
    fefet.program_low_vth()
    ion_ioff = fefet.ion_ioff_ratio(0.35, 1.0, REFERENCE_TEMP_C)
    report = "\n\n".join(
        format_series("V_G (V)", f"I_D (A) {state} @ {temp} degC",
                      vgs, curves[(state, temp)])
        for state in ("low-vth", "high-vth") for temp in temps_c
    )
    return {
        "vgs": vgs,
        "curves": curves,
        "ion_ioff_at_read": ion_ioff,
        "read_voltage": 0.35,
        "report": report,
    }


# ----------------------------------------------------------------------
# Fig. 3 — baseline cell fluctuation
# ----------------------------------------------------------------------
@experiment("fig3", anchor="Fig. 3", tags=("cell", "baseline"),
            description="1FeFET-1R cell fluctuation, saturation vs "
                        "subthreshold")
def fig3_cell_fluctuation(num_temps=12):
    """Output-current fluctuation of the 1FeFET-1R cell in both regions.

    Paper: 20.6 % in saturation (V_read = 1.3 V), 52.1 % in subthreshold
    (V_read = 0.35 V), both relative to 27 degC.
    """
    temps = temperature_grid(num=num_temps)
    out = {}
    for label, design in (("saturation", FeFET1RCell.saturation()),
                          ("subthreshold", FeFET1RCell.subthreshold())):
        currents = np.array([cell_output_current(design, float(t))
                             for t in temps])
        out[label] = {
            "currents": currents,
            "profile": fluctuation_profile(temps, currents),
            "max_fluctuation": max_fluctuation(temps, currents),
            "cold_side": abs(currents[0] / currents[np.argmin(np.abs(temps - 27))] - 1),
        }
    report = "\n\n".join(
        format_series("T (degC)", f"I/I_27C - 1 ({label})",
                      temps, out[label]["profile"])
        for label in out
    )
    return {"temps": temps, **out, "report": report}


# ----------------------------------------------------------------------
# Figs. 4 and 8(a) — array MAC bands
# ----------------------------------------------------------------------
def _array_bands(design, temps_c, n_cells=8, engine="batched"):
    """MAC ladders for every temperature, on the selected circuit engine.

    ``engine="batched"`` (default) queues the full temperature x MAC-level
    grid as one :class:`~repro.array.row.RowEnsemble` and issues a single
    batched transient; ``"scalar"`` runs the reference per-read loops.
    Returns ``(sweeps, ranges, energy_reports, singular_solves)``.

    Thin wrapper over the circuit-backed component estimator
    (:class:`repro.tune.estimators.CircuitMacEstimator`) — the figures
    and the design-space tuner share one calibration path.
    """
    from repro.tune.estimators import CircuitMacEstimator

    est = CircuitMacEstimator(design, temps_c, n_cells=n_cells,
                              engine=engine).calibrate()
    ranges = [
        MacOutputRange.from_samples(k, [est.sweeps[t][k] for t in temps_c])
        for k in range(n_cells + 1)
    ]
    return est.sweeps, ranges, est.reports, est.singular_solves


@experiment("fig4", anchor="Fig. 4", tags=("array", "baseline"),
            description="baseline array: overlapping MAC bands")
def fig4_baseline_overlap(temps_c=CORNER_TEMPS_C, engine="batched"):
    """Fig. 4: the subthreshold 1FeFET-1R array's bands overlap."""
    design = FeFET1RCell.subthreshold()
    sweeps, ranges, _, singular = _array_bands(design, temps_c, engine=engine)
    worst_i, worst = nmr_min(ranges)
    return {
        "sweeps": sweeps,
        "ranges": ranges,
        "overlap": ranges_overlap(ranges),
        "nmr_min": worst,
        "nmr_argmin": worst_i,
        "engine": engine,
        "diagnostics": {"engine": engine, "singular_solves": singular},
        "report": format_ranges("MAC", ranges,
                                title="Fig. 4 - 1FeFET-1R (subthreshold) "
                                      "MAC bands over temperature"),
    }


@experiment("fig7", anchor="Fig. 7", tags=("cell", "proposed"),
            description="proposed 2T-1FeFET cell fluctuation")
def fig7_proposed_cell(num_temps=12):
    """Fig. 7: normalized output of the 2T-1FeFET cell vs. temperature.

    Paper: worst 26.6 % (at 0 degC), <= 12.4 % above 20 degC.
    """
    temps = temperature_grid(num=num_temps)
    design = TwoTOneFeFETCell()
    levels = np.array([
        cell_read_transient(design, float(t)).final_voltage("out")
        for t in temps
    ])
    return {
        "temps": temps,
        "levels": levels,
        "profile": fluctuation_profile(temps, levels),
        "max_fluctuation": max_fluctuation(temps, levels),
        "max_fluctuation_above_20c": max_fluctuation(temps, levels,
                                                     window_c=(20.0, 85.0)),
        "report": format_series("T (degC)", "V/V_27C - 1 (2T-1FeFET)",
                                temps, fluctuation_profile(temps, levels)),
    }


@experiment("fig8", anchor="Fig. 8", tags=("array", "proposed"),
            description="proposed array: bands, NMR, energy, TOPS/W")
def fig8_proposed_array(temps_c=CORNER_TEMPS_C, engine="batched"):
    """Fig. 8 + NMR numbers: bands, per-MAC energy, TOPS/W.

    Paper: non-overlapping bands 0-85 degC, NMR_min = NMR_0 = 0.22
    (2.3 over 20-85 degC), 3.14 fJ per MAC, 2866 TOPS/W.
    """
    design = TwoTOneFeFETCell()
    sweeps, ranges, energy_reports, singular = _array_bands(
        design, temps_c, engine=engine)
    worst_i, worst = nmr_min(ranges)
    # Upper-window NMR (paper: 20-85 degC).
    upper_temps = [t for t in temps_c if t >= 20.0] or list(temps_c)
    upper_ranges = [
        MacOutputRange.from_samples(k, [sweeps[t][k] for t in upper_temps])
        for k in range(9)
    ]
    upper_i, upper = nmr_min(upper_ranges)
    rep = energy_reports[REFERENCE_TEMP_C if REFERENCE_TEMP_C in energy_reports
                         else temps_c[len(temps_c) // 2]]
    report = "\n\n".join([
        format_ranges("MAC", ranges,
                      title="Fig. 8(a) - 2T-1FeFET MAC bands over temperature"),
        format_series("MAC", "energy (fJ)", *zip(*rep.rows()),
                      title="Fig. 8(b) - energy per operation"),
    ])
    return {
        "sweeps": sweeps,
        "ranges": ranges,
        "overlap": ranges_overlap(ranges),
        "nmr": nmr_values(ranges),
        "nmr_min": worst,
        "nmr_argmin": worst_i,
        "nmr_min_above_20c": upper,
        "nmr_argmin_above_20c": upper_i,
        "energy_report": rep,
        "avg_energy_fj": rep.average_energy_fj,
        "tops_per_watt": rep.tops_per_watt(),
        "engine": engine,
        "diagnostics": {"engine": engine, "singular_solves": singular},
        "report": report,
    }


# ----------------------------------------------------------------------
# Fig. 9 — Monte-Carlo process variation
# ----------------------------------------------------------------------
@experiment("fig9", anchor="Fig. 9", tags=("montecarlo", "proposed"),
            description="Monte-Carlo process variation (sigma_VT = 54 mV)")
def fig9_process_variation(n_samples=100, seed=0, design=None,
                           engine="batched"):
    """Fig. 9: 100-sample MC with sigma_VT = 54 mV at 27 degC.

    Paper: max error ~25 % for 8 cells/row, < 10 % when reduced to 4.

    The RNG stream is fully determined by ``seed`` (threaded from
    :class:`~repro.runtime.context.RunContext` when run via the runtime), so
    two runs with the same context are bit-identical.  ``engine`` selects
    the circuit engine (``batched`` solves each row's whole sample set as
    one stacked transient; ``scalar`` is the reference loop).
    """
    design = design or TwoTOneFeFETCell()
    mc8 = run_process_variation_mc(design, n_samples=n_samples, n_cells=8,
                                   seed=seed, engine=engine)
    mc4 = run_process_variation_mc(design, n_samples=n_samples, n_cells=4,
                                   seed=seed, engine=engine)
    counts, edges = mc8.histogram(bins=10)
    rows = [(f"{edges[i]:+.3f}..{edges[i + 1]:+.3f}", counts[i])
            for i in range(len(counts))]
    return {
        "mc8": mc8,
        "mc4": mc4,
        "max_error_8": mc8.max_error,
        "max_error_4": mc4.max_error,
        "max_error_lsb_8": mc8.max_error_lsb,
        "max_error_lsb_4": mc4.max_error_lsb,
        "engine": engine,
        "diagnostics": {
            "engine": engine,
            "singular_solves": mc8.singular_solves + mc4.singular_solves,
        },
        "report": format_table(["error bin", "samples"], rows,
                               title="Fig. 9 - MC error histogram (8 cells)"),
    }


# ----------------------------------------------------------------------
# Table I — the VGG
# ----------------------------------------------------------------------
@experiment("table1", anchor="Table I", tags=("nn", "fast"),
            description="Table-I VGG structure and MAC count")
def table1_vgg():
    """Build the Table-I VGG, verify the structure, count MACs."""
    from repro.nn import build_table1_vgg, count_macs
    from repro.nn.layers import Conv2D, Dense

    vgg = build_table1_vgg()
    logits_shape = vgg.forward(np.zeros((1, 32, 32, 3))).shape
    macs = count_macs(vgg, (32, 32, 3))
    rows = []
    x = np.zeros((1, 32, 32, 3))
    for layer in vgg.layers:
        x_in = x.shape
        x = layer.forward(x)
        if isinstance(layer, (Conv2D, Dense)):
            rows.append((repr(layer), str(x_in[1:]), str(x.shape[1:])))
    return {
        "macs_per_inference": macs,
        "num_parameters": vgg.num_parameters(),
        "output_shape": logits_shape,
        "report": format_table(["layer", "input map", "output map"], rows,
                               title="Table I - VGG structure"),
    }


# ----------------------------------------------------------------------
# decode-error rate (supports the Fig. 4 vs Fig. 8 narrative)
# ----------------------------------------------------------------------
@experiment("decode-errors", anchor="Fig. 4 vs Fig. 8",
            tags=("array", "extension"),
            description="row-MAC decode error rate vs temperature")
def mac_decode_errors(temps_c=(0.0, 27.0, 55.0, 85.0), seed=0, n_vectors=64):
    """Fraction of row MACs decoded wrongly, per design and temperature.

    This is the array-level failure metric implied by overlapping bands:
    fixed 27 degC ADC thresholds misread drifted levels.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n_vectors, 8))
    w = rng.integers(0, 2, size=(8, 8))
    ideal = x @ w
    out = {}
    for label, design in (("2T-1FeFET", TwoTOneFeFETCell()),
                          ("1FeFET-1R sub", FeFET1RCell.subthreshold())):
        unit = BitSerialMacUnit(design, BehavioralMacConfig(
            bits_x=1, bits_w=1,
            temp_grid_c=_calibration_grid((0.0, 27.0, 55.0, 85.0), temps_c)))
        rates = {}
        for temp in temps_c:
            got = unit.binary_matmul(x, w, temp_c=float(temp))
            rates[temp] = float(np.mean(got != ideal))
        out[label] = rates
    rows = [(label, *[f"{out[label][t]:.3f}" for t in temps_c])
            for label in out]
    return {
        "error_rates": out,
        "report": format_table(["design", *[f"{t} degC" for t in temps_c]],
                               rows, title="Row-MAC decode error rate"),
    }


# ----------------------------------------------------------------------
# Extensions beyond the paper's figures
# ----------------------------------------------------------------------
@experiment("mlc", anchor="extension", tags=("cell", "extension"),
            description="multi-level-cell weight encoding transfer")
def mlc_transfer(n_levels=4, temps_c=CORNER_TEMPS_C):
    """Multi-level-cell path: output level vs stored polarization.

    The paper's related work includes multi-bit FeFET MACs [23]; our
    Preisach model supports partial-polarization states natively, and the
    compile-and-serve stack runs them first-class through
    ``MappingConfig.bits_per_cell``.  This experiment measures the cell
    output for every stored level across temperature via
    :func:`repro.cells.multibit.multibit_read_level` and, for
    power-of-two level counts, reports how far the open-loop levels land
    from the program-verify ladder the array backends assume (worst INL
    in per-digit LSB units).
    """
    from repro.cells.multibit import multibit_read_level

    design = TwoTOneFeFETCell()
    levels = {}
    for level in range(n_levels):
        for temp in temps_c:
            levels[(level, temp)] = multibit_read_level(
                design, level, n_levels, float(temp))
    ref_temp = temps_c[len(temps_c) // 2]
    rows = [(lvl, *[f"{levels[(lvl, t)] * 1e3:.2f}" for t in temps_c])
            for lvl in range(n_levels)]
    monotone = all(
        levels[(lvl + 1, ref_temp)] > levels[(lvl, ref_temp)]
        for lvl in range(n_levels - 1)
    )
    # Open-loop INL vs the uniform program-verify ladder (what
    # BitSerialMacUnit.digit_steps assumes), per temperature.
    inl_lsb = {}
    if n_levels >= 3:
        for temp in temps_c:
            v = np.array([levels[(lvl, temp)] for lvl in range(n_levels)])
            step = (v[-1] - v[0]) / (n_levels - 1)
            targets = v[0] + np.arange(n_levels) * step
            inl_lsb[temp] = float(np.max(np.abs(v - targets))
                                  / max(abs(step), 1e-18))
    return {
        "levels": levels,
        "n_levels": n_levels,
        "monotone_at_ref": monotone,
        "inl_lsb": inl_lsb,
        "report": format_table(
            ["level", *[f"{t} degC (mV)" for t in temps_c]], rows,
            title=f"MLC weight encoding - {n_levels}-level cell output"),
    }


@experiment("mlc-temperature", anchor="Figs. 7/8 at MLC",
            tags=("cell", "array", "extension"),
            description="multibit temperature resilience: per-level "
                        "fluctuation and MAC decode accuracy")
def mlc_temperature(bits_per_cell=(2, 3), temps_c=CORNER_TEMPS_C, seed=0,
                    n_vectors=32):
    """Fig. 7/8-style temperature study at 2-3 magnitude bits per cell.

    Cell level (Fig. 7's metric): measures every partial-polarization
    level's read voltage across temperature and reports the worst
    fluctuation relative to 27 degC over the programmed levels (digits
    >= 1; the erased level's near-zero output makes the ratio
    meaningless), plus the worst open-loop INL against the
    program-verify ladder.  Array level (Fig. 8's pass/fail): random
    signed 8-bit matmuls through the behavioral multibit unit at every
    temperature, decoded by the fixed 27 degC ADC ladder; reports the
    exact-decode rate and worst output error in LSB.  With 2**b levels
    per cell the decode gaps are ``2**b - 1`` times narrower than
    binary, so this is where the temperature-resilience claim is
    stress-tested hardest.
    """
    from repro.cells.multibit import measure_multibit_cell

    design = TwoTOneFeFETCell()
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(n_vectors, 16))
    w = rng.integers(-127, 128, size=(16, 8))
    temps = tuple(float(t) for t in temps_c)
    ref_idx = int(np.argmin(np.abs(np.asarray(temps) - 27.0)))
    out = {}
    rows = []
    for b in bits_per_cell:
        cal = measure_multibit_cell(design, b, temps)
        programmed_levels = cal.levels_on[1:]        # digits >= 1, (D, T)
        ref = programmed_levels[:, ref_idx:ref_idx + 1]
        fluct = float(np.max(np.abs(programmed_levels / ref - 1.0)))
        inl = max(cal.inl_lsb_at(t) for t in temps)
        unit = BitSerialMacUnit(design, BehavioralMacConfig(
            bits_per_cell=int(b), temp_grid_c=_calibration_grid(
                BehavioralMacConfig.temp_grid_c, temps)))
        programmed = unit.backend.program(w)
        ideal = unit.ideal_matmul(x, w)
        exact = {}
        max_lsb = {}
        for temp in temps:
            got = unit.backend.matmul(programmed, x, temp_c=temp)
            exact[temp] = float(np.mean(got == ideal))
            max_lsb[temp] = int(np.max(np.abs(got - ideal)))
        out[b] = {
            "calibration": cal,
            "max_fluctuation": fluct,
            "max_inl_lsb": float(inl),
            "exact_decode": exact,
            "max_error_lsb": max_lsb,
            "monotone": all(cal.monotone_at(t) for t in temps),
        }
        rows.append((b, f"{fluct * 100:.1f} %", f"{inl:.2f}",
                     *[f"{exact[t]:.3f}" for t in temps]))
    return {
        "bits_per_cell": tuple(bits_per_cell),
        "temps": temps,
        "results": out,
        "report": format_table(
            ["bits/cell", "level fluct", "INL (LSB)",
             *[f"exact @ {t:g} degC" for t in temps]],
            rows,
            title="Multibit temperature resilience - levels and decode"),
    }


@experiment("mlc-variation", anchor="Fig. 9 at MLC",
            tags=("montecarlo", "extension"),
            description="multibit Monte-Carlo process variation")
def mlc_process_variation(bits_per_cell=(2, 3), n_samples=25, seed=0,
                          sigma_vth_fefet=54e-3, sigma_vth_mosfet=15e-3,
                          n_vectors=16):
    """Fig. 9-style Monte Carlo at 2-3 bits per cell (27 degC).

    Each sample redraws the per-cell threshold offsets on the programmed
    digit planes (same stored weights, a new die — the
    ``reprogram_variation`` shard primitive) and runs a random signed
    8-bit matmul through the fixed 27 degC ADC.  Reports the worst
    relative output error across samples and the mean exact-decode rate,
    per precision.  Variation couples into multibit rows at the
    level-fraction (``d / digit_max``) of each cell, so the narrower
    gaps rather than larger offsets dominate the error growth.
    """
    design = TwoTOneFeFETCell()
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(n_vectors, 16))
    w = rng.integers(-127, 128, size=(16, 8))
    out = {}
    rows = []
    for b in bits_per_cell:
        unit = BitSerialMacUnit(design, BehavioralMacConfig(
            bits_per_cell=int(b),
            sigma_vth_fefet=sigma_vth_fefet,
            sigma_vth_mosfet=sigma_vth_mosfet, seed=seed))
        ideal = unit.ideal_matmul(x, w)
        scale = float(np.max(np.abs(ideal)))
        programmed = unit.backend.program(
            w, rng=np.random.default_rng(seed))
        errors = []
        exact = []
        for sample in range(n_samples):
            shard = unit.backend.reprogram_variation(
                programmed, rng=np.random.default_rng((seed, sample)))
            got = unit.backend.matmul(shard, x, temp_c=REFERENCE_TEMP_C)
            errors.append(float(np.max(np.abs(got - ideal)) / scale))
            exact.append(float(np.mean(got == ideal)))
        out[b] = {
            "errors": errors,
            "max_rel_error": max(errors),
            "mean_exact_decode": float(np.mean(exact)),
        }
        rows.append((b, f"{max(errors) * 100:.1f} %",
                     f"{np.mean(exact):.3f}"))
    return {
        "bits_per_cell": tuple(bits_per_cell),
        "n_samples": n_samples,
        "results": out,
        "report": format_table(
            ["bits/cell", "max rel error", "mean exact decode"], rows,
            title=f"Multibit MC process variation - "
                  f"sigma_VT = {sigma_vth_fefet * 1e3:.0f} mV, "
                  f"{n_samples} samples"),
    }


@experiment("thermal-gradient", anchor="Sec. I", tags=("array", "extension"),
            description="within-row thermal gradient study")
def thermal_gradient_study(spans_c=(0.0, 5.0, 10.0, 20.0), engine="batched"):
    """Within-row thermal gradients (self-heating / hot spots, Sec. I).

    Places a linear temperature gradient across the 8 cells of a row at the
    27 degC ambient and measures how the MAC ladder's worst-case margin
    degrades with gradient span.  Each span's ladder runs as one batched
    ensemble by default (``engine="scalar"`` for the reference loop).
    """
    from repro.devices.thermal import linear_gradient

    design = TwoTOneFeFETCell()
    rows = []
    singular = 0
    for span in spans_c:
        offsets = linear_gradient(8, span)
        row = MacRow(design, n_cells=8, temp_offsets=offsets)
        _, vaccs, results = row.mac_sweep(REFERENCE_TEMP_C, engine=engine)
        singular += sum(r.transient.singular_solves for r in results)
        spacing = np.diff(vaccs)
        rows.append((span, float(spacing.min()), float(spacing.max())))
    return {
        "spans": spans_c,
        "rows": rows,
        "engine": engine,
        "diagnostics": {"engine": engine, "singular_solves": singular},
        "report": format_table(
            ["gradient span (K)", "min spacing (V)", "max spacing (V)"],
            [(s, f"{lo:.2e}", f"{hi:.2e}") for s, lo, hi in rows],
            title="Thermal-gradient study - MAC level spacing"),
    }


# ----------------------------------------------------------------------
# Table II — full summary with measured This-Work row
# ----------------------------------------------------------------------
@experiment("table2", anchor="Table II", tags=("nn", "slow"),
            description="cross-technology summary (trains the reduced VGG; "
                        "slow)")
def table2_summary(*, quick=True, seed=0, backend="fused"):
    """Cross-technology Table II with a measured "This Work" row.

    Trains the reduced VGG on the synthetic dataset, evaluates it with the
    CiM lowering under the paper's Monte-Carlo variation (sigma_VT = 54 mV)
    at 27 degC, measures array energy, and renders the table.

    ``quick`` trims dataset/epochs so the whole experiment runs in a couple
    of minutes; the full setting roughly doubles sizes.  ``backend``
    selects the array kernel (``fused``/``dense``; decoded outputs are
    bit-identical, fused is several times faster).
    """
    from repro.compiler import Chip, MappingConfig, compile_model
    from repro.nn import (Adam, TrainConfig, build_vgg_nano, count_macs,
                          evaluate_accuracy, load_synthetic_cifar10, train)

    n_train, n_test, epochs = (2000, 200, 8) if quick else (4000, 500, 12)
    data = load_synthetic_cifar10(n_train=n_train, n_test=n_test,
                                  image_size=16, noise=1.0, seed=1234)
    model = build_vgg_nano(width=8, image_size=16,
                           rng=np.random.default_rng(42))
    train(model, Adam(model, lr=2e-3), data.x_train, data.y_train,
          TrainConfig(epochs=epochs, batch_size=64, seed=seed))
    float_acc = evaluate_accuracy(model, data.x_test, data.y_test)

    design = TwoTOneFeFETCell()

    def make_chip(bits_per_cell):
        # The spanning mapping (one unbounded tile per layer) is the
        # single logical array of the paper's evaluation.
        mapping = MappingConfig(
            tile_rows=None, tile_cols=None, temp_c=REFERENCE_TEMP_C,
            bits=8, sigma_vth_fefet=54e-3, sigma_vth_mosfet=15e-3,
            seed=seed, backend=backend, bits_per_cell=bits_per_cell)
        return Chip(compile_model(model, design, mapping), design)

    chip = make_chip(1)
    cim_acc = classification_accuracy(chip.predict(data.x_test),
                                      data.y_test)

    fig8 = fig8_proposed_array()
    macs = count_macs(model, data.image_shape)
    # The row width comes from the measured energy report, not a literal:
    # the per-MAC -> per-op conversion embeds it, and a hard-coded 8 here
    # would silently drift if the array sweep ever changed width.
    cells_per_row = fig8["energy_report"].cells_per_row
    this_work = {
        "energy_per_mac_j": fig8["avg_energy_fj"] * 1e-15,
        "cells_per_row": cells_per_row,
        "accuracy": cim_acc,
        "macs_per_inference": macs,
        "dataset": "synthetic Cifar-10",
        "network": "VGG-nano",
    }
    table, rows = build_table2(this_work)
    # Full Table-I VGG inference energy on this array (paper: 85.08 nJ),
    # through the shared per-inference accounting.
    from repro.metrics.efficiency import energy_per_inference

    table1_macs = table1_vgg()["macs_per_inference"]
    vgg_inference_nj = energy_per_inference(
        fig8["avg_energy_fj"] * 1e-15, table1_macs,
        cells_per_row=cells_per_row) * 1e9

    # -- multibit (MLC) sweep: the same trained network at 1/2/3
    # magnitude bits per cell, under the same Monte-Carlo variation.
    # Energy is *metered*: the chip counts physical row ops (so the
    # shorter digit-plane schedule of MLC encoding shows up as fewer
    # ops), each priced at bits_per_cell binary-row energies from the
    # measured Fig. 8 report.  b = 1 reuses the baseline chip, so the
    # baseline row is the baseline accuracy by construction.
    from repro.metrics.efficiency import (
        tops_per_watt as tops_per_watt_metric,
    )

    energy_per_mac_j = fig8["avg_energy_fj"] * 1e-15
    mlc_rows = []
    for b in (1, 2, 3):
        chip_b = chip if b == 1 else make_chip(b)
        if b == 1:
            acc_b = cim_acc
        else:
            chip_b.meter.reset()
            acc_b = classification_accuracy(
                chip_b.predict(data.x_test), data.y_test)
        row_ops = chip_b.meter.row_ops
        energy_nj = (row_ops * energy_per_mac_j * b / len(data.x_test)
                     * 1e9)
        mlc_rows.append({
            "bits_per_cell": b,
            "accuracy": float(acc_b),
            "row_ops_per_image": row_ops / len(data.x_test),
            "energy_nj_per_image": float(energy_nj),
            "tops_per_watt": float(tops_per_watt_metric(
                energy_per_mac_j * b, cells_per_row, b)),
        })
    mlc_table = format_table(
        ["bits/cell", "accuracy", "row ops/img", "nJ/img", "TOPS/W"],
        [(r["bits_per_cell"], f"{r['accuracy']:.3f}",
          f"{r['row_ops_per_image']:.0f}",
          f"{r['energy_nj_per_image']:.2f}",
          f"{r['tops_per_watt']:.0f}") for r in mlc_rows],
        title="Multibit (MLC) weight encoding - VGG-nano, sigma_VT = "
              "54 mV, 27 degC")

    return {
        "float_accuracy": float_acc,
        "cim_accuracy": cim_acc,
        "backend": backend,
        "avg_energy_fj": fig8["avg_energy_fj"],
        "tops_per_watt": fig8["tops_per_watt"],
        "macs_per_inference": macs,
        "table1_vgg_inference_nj": float(vgg_inference_nj),
        "mlc_rows": mlc_rows,
        "rows": rows,
        "report": "\n\n".join([table, mlc_table]),
    }
