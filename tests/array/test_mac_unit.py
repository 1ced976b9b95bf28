"""Tests for the behavioral bit-serial MAC unit.

The behavioral model must (a) agree with the digital reference at the
reference temperature for nominal devices, and (b) reproduce the circuit
row's analog levels it was calibrated from.
"""

import numpy as np
import pytest

from repro.array import BehavioralMacConfig, BitSerialMacUnit, MacRow
from repro.array.mac_unit import CELL_STATES, SENSITIVITY_KEYS
from repro.cells import (
    FeFET1RCell,
    FeFET1TCell,
    TwoTOneFeFETCell,
    cell_read_transient,
)
from repro.constants import REFERENCE_TEMP_C
from repro.devices.variation import CellVariation


@pytest.fixture(scope="module")
def unit():
    """A calibrated behavioral unit for the proposed cell (module-scoped:
    calibration runs ~20 circuit transients)."""
    return BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
        bits_x=4, bits_w=4, temp_grid_c=(0.0, 27.0, 85.0)))


class TestBinaryMatmul:
    def test_exact_at_reference_temperature(self, unit):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=(6, 24))
        w = rng.integers(0, 2, size=(24, 5))
        got = unit.binary_matmul(x, w, temp_c=27.0)
        assert np.array_equal(got, x @ w)

    def test_exact_across_window_nominal(self, unit):
        """The calibrated cell is resilient: decoded counts stay exact over
        the full 0-85 degC window without variation."""
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(4, 16))
        w = rng.integers(0, 2, size=(16, 3))
        for temp in (0.0, 55.0, 85.0):
            assert np.array_equal(unit.binary_matmul(x, w, temp_c=temp), x @ w)

    def test_padding_odd_k(self, unit):
        x = np.ones((1, 11), dtype=int)
        w = np.ones((11, 1), dtype=int)
        assert unit.binary_matmul(x, w, temp_c=27.0)[0, 0] == 11

    def test_dimension_mismatch(self, unit):
        with pytest.raises(ValueError):
            unit.binary_matmul(np.ones((1, 8)), np.ones((9, 1)), temp_c=27.0)

    def test_levels_match_circuit_row(self, unit):
        """Behavioral prefix-ladder levels vs. the real circuit row."""
        row = MacRow(TwoTOneFeFETCell(), n_cells=8)
        _, vaccs, _ = row.mac_sweep(27.0)
        gain = unit.config.sensing.share_gain(8)
        von = unit.level_table(27.0)[(1, 1)]
        z10 = unit.level_table(27.0)[(1, 0)]
        predicted = gain * (np.arange(9) * von + (8 - np.arange(9)) * z10)
        # Same ladder within a millivolt (share-phase residuals allowed).
        assert np.max(np.abs(predicted - vaccs)) < 1.5e-3


class TestBitSerial:
    def test_multibit_exact_at_reference(self, unit):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 15, size=(3, 16))
        w = rng.integers(-7, 8, size=(16, 4))
        got = unit.matmul(x, w, temp_c=27.0)
        assert np.array_equal(got, x @ w)

    def test_signed_weights_split(self, unit):
        x = np.array([[3, 1]])
        w = np.array([[2], [-3]])
        assert unit.matmul(x, w, temp_c=27.0)[0, 0] == 3

    def test_rejects_negative_activations(self, unit):
        with pytest.raises(ValueError):
            unit.matmul(np.array([[-1]]), np.array([[1]]), temp_c=27.0)

    def test_rejects_out_of_range_activations(self, unit):
        """Codes above 2**bits_x - 1 no longer silently truncate."""
        with pytest.raises(ValueError, match=r"\[0, 15\]"):
            unit.matmul(np.array([[16]]), np.array([[1]]), temp_c=27.0)

    def test_rejects_out_of_range_weights(self, unit):
        """|w| above the bits_w magnitude range raises, not truncates."""
        with pytest.raises(ValueError, match=r"\[-7, 7\]"):
            unit.matmul(np.array([[1]]), np.array([[8]]), temp_c=27.0)
        with pytest.raises(ValueError, match=r"\[-7, 7\]"):
            unit.matmul(np.array([[1]]), np.array([[-8]]), temp_c=27.0)


class TestVariationAndDrift:
    def test_variation_injects_errors(self):
        """With the paper's sigma_VT = 54 mV some decoded counts flip."""
        noisy = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
            bits_x=2, bits_w=2, temp_grid_c=(0.0, 27.0, 85.0),
            sigma_vth_fefet=54e-3, sigma_vth_mosfet=15e-3, seed=3))
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(40, 64))
        w = rng.integers(0, 2, size=(64, 8))
        got = noisy.binary_matmul(x, w, temp_c=27.0)
        ideal = x @ w
        assert not np.array_equal(got, ideal)
        # ... but errors are bounded (no catastrophic decode).
        assert np.max(np.abs(got - ideal)) <= 16

    def test_baseline_cell_drifts_into_errors(self):
        """The subthreshold 1FeFET-1R behavioral unit misdecodes when hot —
        the array-level translation of Fig. 4."""
        base = BitSerialMacUnit(FeFET1RCell.subthreshold(), BehavioralMacConfig(
            bits_x=2, bits_w=2, temp_grid_c=(0.0, 27.0, 85.0)))
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, size=(10, 32))
        w = rng.integers(0, 2, size=(32, 4))
        ideal = x @ w
        assert np.array_equal(base.binary_matmul(x, w, temp_c=27.0), ideal)
        hot = base.binary_matmul(x, w, temp_c=85.0)
        assert not np.array_equal(hot, ideal)


class TestEnsembleCalibration:
    """The unit solves its calibration reads as one batched ensemble.
    The batched engine only promises solver tolerance, so the scalar
    read transient is the oracle, bit for bit: a host whose LAPACK makes
    the ensemble differ fails here instead of shifting every ADC
    threshold."""

    @staticmethod
    def scalar_calibration(design, grid):
        """Levels and sensitivities from one scalar read per member."""
        levels = np.array([
            [cell_read_transient(design, t, weight_bit=weight,
                                 input_bit=inp).final_voltage("out")
             for t in grid]
            for weight, inp in CELL_STATES])
        delta = 27e-3
        base = float(np.interp(REFERENCE_TEMP_C, grid, levels[0]))
        sens = {
            which: (cell_read_transient(
                design, REFERENCE_TEMP_C,
                variation=CellVariation(**{which: delta}),
            ).final_voltage("out") - base) / delta
            for which in SENSITIVITY_KEYS}
        return levels, sens

    @pytest.mark.parametrize("grid", [BehavioralMacConfig().temp_grid_c,
                                      (-10.0, 27.0, 50.0, 100.0)],
                             ids=["default-grid", "wide-grid"])
    @pytest.mark.parametrize("design", [TwoTOneFeFETCell(), FeFET1RCell(),
                                        FeFET1TCell()],
                             ids=lambda design: design.name)
    def test_matches_scalar_reads(self, design, grid):
        calibration = BitSerialMacUnit(
            design, BehavioralMacConfig(temp_grid_c=grid)).calibration()
        levels, sens = self.scalar_calibration(design, grid)
        assert np.array_equal(calibration.levels, levels)
        for which in SENSITIVITY_KEYS:
            assert calibration.von_sensitivity[which] == sens[which]


class TestTemperatureDomain:
    """Levels are interpolated over the calibration grid and never
    extrapolated: ``np.interp`` would clamp, serving the nearest edge's
    physics without a word."""

    @pytest.mark.parametrize("temp", [120.0, -40.0])
    def test_outside_the_grid_raises(self, unit, temp):
        x = np.ones((1, 8), dtype=int)
        w = np.ones((8, 1), dtype=int)
        with pytest.raises(ValueError, match="outside the calibration grid"):
            unit.levels_at(temp)
        with pytest.raises(ValueError, match=f"{temp} degC"):
            unit.binary_matmul(x, w, temp_c=temp)

    @pytest.mark.parametrize("edge", [0, -1], ids=["0C", "85C"])
    def test_grid_edges_serve(self, unit, edge):
        temp = unit.config.temp_grid_c[edge]
        levels = unit.calibration().levels[:, edge]
        assert unit.levels_at(temp) == tuple(levels)
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, size=(4, 16))
        w = rng.integers(0, 2, size=(16, 3))
        assert np.array_equal(unit.binary_matmul(x, w, temp_c=temp), x @ w)

    def test_grid_must_reach_the_reference_temperature(self):
        """The ADC thresholds are calibrated at 27 degC."""
        with pytest.raises(ValueError, match="27.0 degC"):
            BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
                temp_grid_c=(40.0, 60.0, 85.0)))
