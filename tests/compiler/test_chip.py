"""Tests for Chip: metering, segmented forwards, and binding semantics."""

import numpy as np
import pytest

from repro.array.timing import LatencySpec
from repro.cells import FeFET1RCell, TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.nn import Dense, ReLU, Sequential


@pytest.fixture(scope="module")
def design():
    return TwoTOneFeFETCell()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    return Sequential([Dense(40, 10, rng=rng), ReLU(),
                       Dense(10, 6, rng=rng)])


@pytest.fixture(scope="module")
def chip(model, design):
    program = compile_model(model, design, MappingConfig(tile_rows=16,
                                                         tile_cols=4))
    return Chip(program, design)


class TestMeter:
    def test_row_ops_follow_physical_count(self, chip, model):
        """row_ops = rows x active bits x planes x chunks x cols per tile."""
        chip.meter.reset()
        x = np.random.default_rng(1).normal(size=(3, 40))
        chip.forward(x)
        snap = chip.meter.snapshot()
        assert snap["matmuls"] == chip.program.n_tiles
        expected = 0
        for plan in chip.program.layers:
            for tile in plan.tiles:
                programmed = chip.programmed_tile(
                    plan.index, tile.row_block, tile.col_block)
                # All 8 activation bits are populated by a normal batch.
                expected += (3 * 8 * programmed.n_planes
                             * programmed.chunks * programmed.n)
        assert snap["row_ops"] == expected
        assert snap["energy_j"] == pytest.approx(
            expected * chip.meter.energy_per_mac_j)

    def test_energy_scales_with_batch(self, chip):
        chip.meter.reset()
        x = np.random.default_rng(2).normal(size=(2, 40))
        chip.forward(x)
        one = chip.meter.snapshot()["energy_j"]
        chip.forward(np.concatenate([x, x, x]))
        assert chip.meter.snapshot()["energy_j"] == pytest.approx(4 * one)

    def test_latency_prices_serial_bit_cycles(self, chip, model):
        chip.meter.reset()
        x = np.random.default_rng(3).normal(size=(4, 40))
        chip.forward(x)
        snap = chip.meter.snapshot()
        # Two dense layers, 4 rows each, 8 active bits: 64 serial cycles.
        assert snap["bit_cycles"] == 2 * 4 * 8
        assert snap["latency_s"] == pytest.approx(
            snap["bit_cycles"] * LatencySpec().mac_latency_s)

    def test_per_tile_breakdown_covers_grid(self, chip):
        chip.meter.reset()
        chip.forward(np.random.default_rng(4).normal(size=(2, 40)))
        tiles = chip.meter.snapshot()["tiles"]
        assert len(tiles) == chip.program.n_tiles
        assert all(c["row_ops"] > 0 for c in tiles.values())

    def test_measured_energy_report_overrides_default(self, model, design,
                                                      chip):
        from repro.array.energy import EnergyReport, OperationEnergy

        report = EnergyReport(
            tuple(OperationEnergy(k, 2e-15, {}) for k in range(9)))
        metered = Chip(chip.program, design, unit=chip.unit,
                       estimator=report.estimator())
        assert metered.meter.energy_per_mac_j == pytest.approx(2e-15)

    def test_mismatched_energy_report_row_width_rejected(self, design,
                                                         chip):
        """A report measured at one row width cannot silently meter a
        mapping of another — the per-MAC energy embeds the width."""
        from repro.array.energy import EnergyReport, OperationEnergy

        report = EnergyReport(
            tuple(OperationEnergy(k, 2e-15, {}) for k in range(5)),
            cells_per_row=4)
        with pytest.raises(ValueError, match="cells/row"):
            Chip(chip.program, design, unit=chip.unit,
                 estimator=report.estimator())

    def test_standalone_meter_adopts_report_row_width(self):
        """A meter built from a measured report prices ops at the
        report's own row width, not an assumed 8."""
        from repro.array.energy import EnergyReport, OperationEnergy
        from repro.compiler.chip import ChipMeter

        report = EnergyReport(
            tuple(OperationEnergy(k, 2e-15, {}) for k in range(5)),
            cells_per_row=4)
        meter = ChipMeter(report.estimator())
        assert meter.cells_per_row == 4
        assert meter.tops_per_watt == pytest.approx(report.tops_per_watt())

    def test_replicas_are_priced_by_the_chip_they_are_built_from(
            self, design, chip):
        from repro.tune.estimators import TableMacEstimator

        estimator = TableMacEstimator(
            2.5e-15, latency=LatencySpec(t_decode_s=0.3e-9))
        first = Chip(chip.program, design, estimator=estimator,
                     unit=chip.unit)
        replicas = Chip.build_replicas(chip.program, design, 3, first=first)
        assert all(r.meter.estimator is estimator for r in replicas)
        assert len({id(r.meter) for r in replicas}) == 3

    def test_tops_per_watt_follows_mapping_row_width(self, model, design):
        """Cross-consistency: a non-default row width must change the
        reported TOPS/W (same per-MAC energy, fewer ops per MAC)."""
        from repro.metrics.efficiency import tops_per_watt

        narrow = Chip(compile_model(model, design,
                                    MappingConfig(tile_rows=16, tile_cols=4,
                                                  cells_per_row=4)),
                      design)
        wide_snap = Chip(compile_model(model, design,
                                       MappingConfig(tile_rows=16,
                                                     tile_cols=4)),
                         design).meter.snapshot()
        narrow_snap = narrow.meter.snapshot()
        assert wide_snap["cells_per_row"] == 8
        assert narrow_snap["cells_per_row"] == 4
        assert narrow_snap["tops_per_watt"] != wide_snap["tops_per_watt"]
        assert narrow_snap["tops_per_watt"] == pytest.approx(
            tops_per_watt(narrow.meter.energy_per_mac_j, 4))
        assert wide_snap["tops_per_watt"] == pytest.approx(
            tops_per_watt(narrow.meter.energy_per_mac_j, 8))


class TestSegmentedForward:
    """segments= batches many requests with request-local quantization."""

    @pytest.mark.parametrize("temp", [None, 85.0])
    def test_segments_match_per_request_forwards(self, chip, temp):
        rng = np.random.default_rng(5)
        requests = [rng.normal(size=(n, 40)) * scale
                    for n, scale in ((1, 1.0), (3, 10.0), (2, 0.2))]
        batched = chip.forward(np.concatenate(requests),
                               temp_c=temp,
                               segments=[r.shape[0] for r in requests])
        offset = 0
        for request in requests:
            alone = chip.forward(request, temp_c=temp)
            assert np.array_equal(
                batched[offset:offset + request.shape[0]], alone)
            offset += request.shape[0]

    def test_segments_match_on_saturation_design(self):
        """The union bit schedule relies on blank-activation chunks
        decoding to zero; assert it on the least forgiving design."""
        design = FeFET1RCell.saturation()
        rng = np.random.default_rng(6)
        model = Sequential([Dense(24, 5, rng=rng)])
        program = compile_model(model, design, MappingConfig(tile_rows=8,
                                                             tile_cols=3))
        chip = Chip(program, design)
        # Disjoint magnitudes: segment codes populate different bit planes.
        a = np.abs(rng.normal(size=(2, 24))) * 100.0
        b = np.abs(rng.normal(size=(3, 24))) * 0.01
        batched = chip.forward(np.concatenate([a, b]), temp_c=85.0,
                               segments=[2, 3])
        assert np.array_equal(batched[:2], chip.forward(a, temp_c=85.0))
        assert np.array_equal(batched[2:], chip.forward(b, temp_c=85.0))

    def test_segments_must_cover_batch(self, chip):
        x = np.random.default_rng(7).normal(size=(4, 40))
        with pytest.raises(ValueError, match="segments"):
            chip.forward(x, segments=[1, 2])


class TestBinding:
    def test_shared_unit_skips_recalibration(self, chip, model, design):
        other = Chip(chip.program, design, unit=chip.unit)
        assert other.unit is chip.unit
        x = np.random.default_rng(8).normal(size=(2, 40))
        assert np.array_equal(other.forward(x), chip.forward(x))

    def test_backend_override_on_shared_unit(self, chip, model, design):
        """A dense-mapping chip over a fused-configured unit gets its own
        dense backend instance but identical outputs."""
        program = compile_model(model, design, MappingConfig(
            tile_rows=16, tile_cols=4, backend="dense"))
        dense_chip = Chip(program, design, unit=chip.unit)
        assert dense_chip.backend is not chip.backend
        assert dense_chip.backend.name == "dense"
        x = np.random.default_rng(9).normal(size=(2, 40))
        assert np.array_equal(dense_chip.forward(x), chip.forward(x))

    def test_matmul_codes_validates_shape(self, chip):
        plan = chip.program.layers[0]
        with pytest.raises(ValueError, match="x_codes"):
            chip.matmul_codes(plan, np.zeros((2, 7), dtype=np.int64),
                              temp_c=27.0)


class TestDrift:
    """Time-dependent device state at chip level.

    With the drift clock at zero the chip must stay bit-identical to a
    chip that never heard of drift; an aged clock must move logits; and
    ``reprogram()`` must restore bit-identity while pricing the rewrite
    exactly as the RowWriter pulse scheme does.
    """

    def _fresh(self, model, design):
        program = compile_model(model, design,
                                MappingConfig(tile_rows=16, tile_cols=4))
        return Chip(program, design)

    def test_zero_clock_bit_identical_to_no_drift(self, model, design):
        plain = self._fresh(model, design)
        drifted = self._fresh(model, design)
        drifted.enable_drift()
        x = np.random.default_rng(5).normal(size=(3, 40))
        for temp in (27.0, 85.0):
            assert np.array_equal(plain.forward(x, temp_c=temp),
                                  drifted.forward(x, temp_c=temp))

    def test_aging_moves_logits_and_reprogram_restores(self, model,
                                                       design):
        from repro.devices import RetentionModel

        chip = self._fresh(model, design)
        x = np.random.default_rng(6).normal(size=(3, 40))
        fresh = chip.forward(x, temp_c=27.0)
        chip.enable_drift(model=RetentionModel(tau0_s=1e-3,
                                               activation_ev=0.5))
        # Severe bake: retention low enough to move decoded counts.
        chip.advance_drift(3e5, 85.0)
        assert chip.drift.retention() < 0.8
        assert not np.array_equal(fresh, chip.forward(x, temp_c=27.0))
        summary = chip.reprogram()
        assert chip.drift.retention() == 1.0
        assert summary["retention"] == 1.0
        assert np.array_equal(fresh, chip.forward(x, temp_c=27.0))

    def test_advance_without_drift_is_noop(self, model, design):
        chip = self._fresh(model, design)
        chip.advance_drift(1e6, 85.0)     # drift never enabled
        assert chip.drift is None

    def test_reprogram_priced_like_row_writer(self, model, design):
        """The maintenance bill must equal the RowWriter pulse scheme:
        one block-parallel erase over every cell plus one WL-serial
        program pulse per stored nonzero digit level."""
        chip = self._fresh(model, design)
        chip.meter.reset()
        summary = chip.reprogram()

        erase = chip.meter.estimator.estimate("program_write", bit=0)
        program = chip.meter.estimator.estimate("program_write", bit=1)
        erase_cells = 0
        pulses = 0
        depth = 0
        for programmed in chip._programmed.values():
            planes = programmed.w_planes
            erase_cells += planes.size
            nonzero = planes != 0
            pulses += int(nonzero.sum()) * programmed.bits_per_cell
            depth = max(depth, int(nonzero.sum(axis=2).max())
                        * programmed.bits_per_cell)
        assert summary["erase_cells"] == erase_cells
        assert summary["program_pulses"] == pulses
        assert summary["write_energy_j"] == pytest.approx(
            erase_cells * erase.energy_j + pulses * program.energy_j)
        assert summary["write_latency_s"] == pytest.approx(
            erase.latency_s + depth * program.latency_s)
        snap = chip.meter.snapshot()
        assert snap["writes"] == 1
        assert snap["reprograms"] == 1
        assert snap["write_energy_j"] == pytest.approx(
            summary["write_energy_j"])
