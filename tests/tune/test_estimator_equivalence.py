"""Golden equivalence: metrics through the estimator interface are
bit-identical to the pre-refactor inline formulas.

The estimator refactor moved pricing out of ``EnergyReport``,
``ChipMeter``, and ``_array_bands`` into :mod:`repro.tune.estimators`.
These tests pin the contract that the move changed *nothing*: every
derived number equals the original expression exactly (``==``, not
``approx``) — table2, fig8, and chip telemetry must not drift by an ulp
across the refactor.
"""

import numpy as np
import pytest

from repro.array.energy import EnergyReport, OperationEnergy
from repro.array.timing import LatencySpec
from repro.cells import TwoTOneFeFETCell
from repro.compiler.chip import ChipMeter
from repro.metrics.efficiency import (
    energy_per_inference,
    energy_per_primitive_op,
    tops_per_watt,
)
from repro.tune.estimators import CircuitMacEstimator, TableMacEstimator


def make_report(cells_per_row=8, bits_per_cell=1):
    ops = tuple(
        OperationEnergy(mac_value=k, energy_j=(0.5 + 0.17 * k) * 1e-15,
                        by_source={})
        for k in range(cells_per_row + 1)
    )
    return EnergyReport(ops, cells_per_row, bits_per_cell)


class TestReportEquivalence:
    """EnergyReport's derived metrics vs the original inline formulas."""

    @pytest.mark.parametrize("cells,bits", [(8, 1), (4, 2), (16, 1)])
    def test_tops_per_watt_bit_identical(self, cells, bits):
        rep = make_report(cells, bits)
        # Pre-refactor: tops_per_watt(avg * b, cells, b) inline.
        assert rep.tops_per_watt() == tops_per_watt(
            rep.average_energy_j * bits, cells, bits)

    @pytest.mark.parametrize("cells,bits", [(8, 1), (4, 2)])
    def test_energy_per_op_bit_identical(self, cells, bits):
        rep = make_report(cells, bits)
        assert rep.energy_per_op_j() == energy_per_primitive_op(
            rep.average_energy_j * bits, cells, bits)

    @pytest.mark.parametrize("total_macs", [1, 100, 12345])
    def test_inference_energy_bit_identical(self, total_macs):
        rep = make_report()
        assert rep.inference_energy_j(total_macs) == energy_per_inference(
            rep.average_energy_j, total_macs, rep.cells_per_row,
            rep.bits_per_cell)


class TestChipMeterEquivalence:
    """ChipMeter telemetry vs the original energy/latency expressions."""

    def record(self, meter):
        meter.record(("L", 0, 0), rows=7, active_bits=5, n_planes=3,
                     chunks=2, cols=4)
        meter.record_cycles(rows=7, active_bits=5)
        return meter

    def test_default_meter_prices_the_paper_numbers(self):
        meter = self.record(ChipMeter())
        # Pre-refactor: energy = row_ops * energy_per_mac_j * b,
        # latency = bit_cycles * latency.mac_latency_s — exactly.
        assert meter.energy_j == meter.row_ops * meter.energy_per_mac_j
        assert meter.latency_s == meter.bit_cycles * LatencySpec().mac_latency_s
        assert meter.tops_per_watt == tops_per_watt(
            meter.energy_per_mac_j, meter.cells_per_row)

    def test_multibit_meter_prices_per_level(self):
        meter = self.record(ChipMeter(TableMacEstimator(2e-15,
                                                        bits_per_cell=2)))
        assert meter.energy_per_row_op_j == 2e-15 * 2
        assert meter.energy_j == meter.row_ops * 2e-15 * 2

    def test_report_backed_meter_uses_measured_average(self):
        rep = make_report(cells_per_row=4)
        meter = self.record(ChipMeter(rep.estimator()))
        assert meter.energy_per_mac_j == rep.average_energy_j
        assert meter.cells_per_row == 4
        assert meter.energy_j == meter.row_ops * rep.average_energy_j

    def test_snapshot_keys_unchanged(self):
        snap = self.record(ChipMeter()).snapshot()
        assert {"row_ops", "bit_cycles", "matmuls", "energy_j",
                "latency_s", "tops_per_watt"} <= set(snap)


class TestTunerMeasuredPricing:
    """A measured report prices every chip the tuner scores: replica 0
    and, through ``Chip.build_replicas``, the rest of the fleet."""

    @pytest.fixture(scope="class")
    def scored(self):
        from repro.compiler import MappingConfig
        from repro.tune.space import Candidate
        from repro.tune.tuner import TuneWorkload, evaluate_candidate

        workload = TuneWorkload(n_probe=2)
        design, model, images, float_pred = workload.build()
        mapping = MappingConfig(tile_rows=32, tile_cols=16, bits_per_cell=2)
        report = make_report(bits_per_cell=2)
        scores, unit = {}, None
        for n_replicas in (1, 2):
            scores[n_replicas], unit = evaluate_candidate(
                Candidate(mapping, n_replicas), workload, design=design,
                model=model, images=images, float_pred=float_pred,
                estimator="circuit", unit=unit, energy_report=report)
        return report, scores

    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_report_prices_every_replica(self, scored, n_replicas):
        report, scores = scored
        score = scores[n_replicas]
        assert score["tops_per_watt"] == report.estimator().tops_per_watt()
        assert score["energy_j"] == pytest.approx(
            score["row_ops"] * report.average_energy_j * 2, rel=1e-12)


class TestCircuitEquivalence:
    """CircuitMacEstimator vs the original ``_array_bands`` loop."""

    @pytest.fixture(scope="class")
    def design(self):
        return TwoTOneFeFETCell()

    @pytest.fixture(scope="class")
    def calibrated(self, design):
        return CircuitMacEstimator(design, (0.0, 27.0), n_cells=2).calibrate()

    def test_batched_calibration_matches_direct_ladders(self, design,
                                                        calibrated):
        from repro.array.row import run_mac_ladders

        ladders = run_mac_ladders(design, (0.0, 27.0), n_cells=2)
        for temp, results in zip((0.0, 27.0), ladders.values()):
            vaccs = np.array([r.vacc for r in results])
            assert np.array_equal(calibrated.sweeps[temp], vaccs)
            direct = EnergyReport.from_sweep(results, 2)
            served = calibrated.reports[temp]
            assert [op.energy_j for op in served.operations] \
                == [op.energy_j for op in direct.operations]
            assert served.average_energy_j == direct.average_energy_j

    def test_per_mac_energy_serves_measured_values(self, calibrated):
        rep = calibrated.reports[27.0]
        assert calibrated.per_mac_energy_j(27.0) == rep.average_energy_j
        assert calibrated.per_mac_energy_j(27.0, mac_value=1) \
            == rep.energy_at(1)

    def test_calibrate_is_idempotent(self, calibrated):
        sweeps = calibrated.sweeps
        assert calibrated.calibrate() is calibrated
        assert calibrated.sweeps is sweeps

    def test_scalar_engine_matches_macrow_sweep(self, design):
        from repro.array import MacRow

        est = CircuitMacEstimator(design, (27.0,), n_cells=2,
                                  engine="scalar").calibrate()
        _, vaccs, results = MacRow(design, n_cells=2).mac_sweep(
            27.0, engine="scalar")
        assert np.array_equal(est.sweeps[27.0], vaccs)
        assert est.reports[27.0].average_energy_j \
            == EnergyReport.from_sweep(results, 2).average_energy_j
