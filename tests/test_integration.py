"""End-to-end integration tests spanning every layer of the stack."""

import numpy as np
import pytest

from repro.array import ChargeSharingSensor, MacRow
from repro.array.write import RowWriter
from repro.cells import TwoTOneFeFETCell
from repro.metrics import classification_accuracy


class TestFullPipeline:
    """The quickstart flow, asserted: program -> read -> decode, over T."""

    @pytest.fixture(scope="class")
    def calibrated(self):
        design = TwoTOneFeFETCell()
        row = MacRow(design, n_cells=8)
        _, levels, _ = row.mac_sweep(27.0)
        sensor = ChargeSharingSensor(row.sensing).calibrate(levels)
        return row, sensor

    def test_arbitrary_pattern_decodes_across_window(self, calibrated):
        row, sensor = calibrated
        weights = [1, 0, 1, 1, 0, 1, 1, 1]
        inputs = [1, 1, 1, 0, 1, 1, 0, 1]
        expected = sum(w & x for w, x in zip(weights, inputs))
        row.program_weights(weights)
        for temp in (0.0, 27.0, 85.0):
            result = row.read(inputs, temp_c=temp)
            assert sensor.decode_scalar(result.vacc) == expected
            assert result.mac_true == expected

    def test_mixed_zero_patterns_decode_equally(self, calibrated):
        """MAC=3 via different zero mixes must decode identically
        (the WL-underdrive fix makes zeros pattern-independent)."""
        row, sensor = calibrated
        cases = [
            ([1, 1, 1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1, 1]),
            ([1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0, 0, 0]),
            ([1, 1, 1, 0, 0, 1, 1, 0], [1, 1, 1, 1, 1, 0, 0, 0]),
        ]
        for weights, inputs in cases:
            row.program_weights(weights)
            result = row.read(inputs, temp_c=85.0)
            assert sensor.decode_scalar(result.vacc) == 3

    def test_write_then_read_energy_budget(self, calibrated):
        """One row write plus one MAC stays in the sub-pJ envelope; reads
        are far cheaper than writes (why CiM amortizes stationary weights)."""
        row, _ = calibrated
        weights = [1] * 8
        write = RowWriter().write_row(weights)
        row.program_weights(weights)
        read = row.read([1] * 8, temp_c=27.0)
        total_fj = (write.energy_j + read.energy_j) * 1e15
        assert 1.0 < total_fj < 600.0
        assert read.energy_j < 0.1 * write.energy_j


class TestNNPipeline:
    def test_tiny_end_to_end(self):
        """Train a tiny net, lower it to the array, accuracy survives."""
        from repro.compiler import Chip, MappingConfig, compile_model
        from repro.nn import (Adam, Dense, ReLU, Sequential, TrainConfig,
                              train)

        rng = np.random.default_rng(0)
        centers = np.array([[1.5, 0.0], [-1.5, 1.0], [0.0, -1.5]])
        labels = np.arange(120) % 3
        x = centers[labels] + rng.normal(0, 0.4, size=(120, 2))

        model = Sequential([Dense(2, 12, rng=rng), ReLU(),
                            Dense(12, 3, rng=rng)])
        train(model, Adam(model, lr=0.01), x, labels,
              TrainConfig(epochs=25, batch_size=24))
        float_acc = classification_accuracy(model.predict(x), labels)
        assert float_acc > 0.9

        design = TwoTOneFeFETCell()
        for temp in (0.0, 85.0):
            chip = Chip(compile_model(model, design, MappingConfig(
                tile_rows=None, tile_cols=None, temp_c=temp, bits=8)),
                design)
            cim_acc = classification_accuracy(chip.predict(x), labels)
            assert cim_acc > float_acc - 0.05
