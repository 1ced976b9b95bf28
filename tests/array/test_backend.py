"""Tests for the pluggable array backends (repro.array.backend).

The safety rail of the backend split: ``FusedBitPlaneBackend`` must be
*bit-identical* to ``DenseNumpyBackend`` — same programmed array, same
activations, same temperature => exactly the same decoded integers, across
nominal and variation-programmed arrays.  Plus weight-stationary semantics
(programming happens once; variation is frozen at write time) and operand
range validation.
"""

import tracemalloc

import numpy as np
import pytest

from repro.array import (
    BehavioralMacConfig,
    BitSerialMacUnit,
    DenseNumpyBackend,
    FusedBitPlaneBackend,
    make_backend,
)
from repro.cells import TwoTOneFeFETCell

#: (rows, k, cols) operand shapes exercising padding, single chunks,
#: multi-chunk rows, and single-column edge cases.
SHAPES = ((3, 24, 5), (2, 7, 1), (1, 8, 4), (5, 40, 9), (4, 17, 3))
TEMPS = (0.0, 27.0, 63.5, 85.0)


@pytest.fixture(scope="module")
def unit():
    """Nominal calibrated unit (module-scoped: calibration runs circuit
    transients)."""
    return BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
        bits_x=4, bits_w=4, temp_grid_c=(0.0, 27.0, 85.0)))


@pytest.fixture(scope="module")
def noisy_unit():
    """Unit with the paper's process variation enabled."""
    return BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
        bits_x=4, bits_w=4, temp_grid_c=(0.0, 27.0, 85.0),
        sigma_vth_fefet=54e-3, sigma_vth_mosfet=15e-3, seed=3))


def _operands(rng, shape, bits=4):
    m, k, n = shape
    x = rng.integers(0, 2 ** bits, size=(m, k))
    w = rng.integers(-(2 ** (bits - 1) - 1), 2 ** (bits - 1), size=(k, n))
    return x, w


class TestDenseFusedEquivalence:
    def test_bit_exact_nominal_across_shapes_and_temps(self, unit):
        """Property battery: fused == dense exactly, nominal arrays."""
        dense, fused = DenseNumpyBackend(unit), FusedBitPlaneBackend(unit)
        rng = np.random.default_rng(0)
        for shape in SHAPES:
            x, w = _operands(rng, shape)
            pd, pf = dense.program(w), fused.program(w)
            for temp in TEMPS:
                a = dense.matmul(pd, x, temp_c=temp)
                b = fused.matmul(pf, x, temp_c=temp)
                assert np.array_equal(a, b), (shape, temp)

    def test_bit_exact_with_variation(self, noisy_unit):
        """Same RNG => same programmed variation => identical outputs."""
        dense = DenseNumpyBackend(noisy_unit)
        fused = FusedBitPlaneBackend(noisy_unit)
        rng = np.random.default_rng(1)
        for shape in SHAPES:
            x, w = _operands(rng, shape)
            pd = dense.program(w, rng=np.random.default_rng(11))
            pf = fused.program(w, rng=np.random.default_rng(11))
            assert pd.w_dv is not None
            for temp in TEMPS:
                a = dense.matmul(pd, x, temp_c=temp)
                b = fused.matmul(pf, x, temp_c=temp)
                assert np.array_equal(a, b), (shape, temp)

    @pytest.mark.parametrize("bits_per_cell", [1, 2])
    def test_fused_row_blocking_is_exact(self, unit, bits_per_cell):
        """Tiny block budget changes nothing: the pattern decode runs
        one-chunk blocks at every bits per cell."""
        unit = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
            bits_x=4, bits_w=4, temp_grid_c=(0.0, 27.0, 85.0),
            bits_per_cell=bits_per_cell), calibration=unit.calibration())
        fused = FusedBitPlaneBackend(unit)
        fused.block_budget = 1
        dense = DenseNumpyBackend(unit)
        rng = np.random.default_rng(2)
        x, w = _operands(rng, (6, 24, 4))
        assert np.array_equal(
            fused.matmul(fused.program(w), x, temp_c=85.0),
            dense.matmul(dense.program(w), x, temp_c=85.0))

    @pytest.mark.parametrize(
        "temp, retention", [(27.0, None), (85.0, None), (27.0, 0.8)],
        ids=["27C", "85C", "27C-r0.8"])
    @pytest.mark.parametrize("bits_per_cell", [1, 2])
    def test_rows_too_wide_for_the_pattern_decode(self, unit, bits_per_cell,
                                                  temp, retention):
        """A 32-cell row has 2**32 input patterns, too many to enumerate,
        so a nominal tile serves on a zero-offset guard band: the exact
        GEMM plus per-instance corrections of the entries at digit sums
        the nominal decode can misread.  Off the exact-decode gate the
        band leaves such entries uncertified; at every key it matches the
        dense oracle bit for bit (and its int32 LUT addresses)."""
        wide = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
            cells_per_row=32, bits_x=4, bits_w=4,
            temp_grid_c=(0.0, 27.0, 85.0), bits_per_cell=bits_per_cell),
            calibration=unit.calibration())
        dense, fused = DenseNumpyBackend(wide), FusedBitPlaneBackend(wide)
        x, w = _operands(np.random.default_rng(3), (3, 70, 2))
        # Full chunks of 7s reach the top digit sums, where 1 bit at
        # 85 degC and 2 bits at 27 degC misread; one row drives them all.
        w[:, 0], x[0] = 7, 15
        pd, pf = dense.program(w), fused.program(w)
        assert "w_aug" not in fused._weight_stack(pf)
        assert np.array_equal(
            dense.matmul(pd, x, temp_c=temp, retention=retention),
            fused.matmul(pf, x, temp_c=temp, retention=retention))
        band = fused.guard_band(pf, temp, retention)
        assert not band.dv.any()
        assert (band.n_uncertified > 0) is not fused.exact_decode(
            temp, retention)

    def test_wide_tile_decode_stays_within_the_variation_budget(
            self, unit, monkeypatch):
        """One activation row of a 32-cell tile's uncertified entries
        outgrows a small ``block_budget_variation``; the per-instance
        decode then blocks over entries too, so its peak memory follows
        the budget, not the tile, and its corrections stay bit-exact."""
        budget = 2 ** 16
        monkeypatch.setattr(FusedBitPlaneBackend, "block_budget_variation",
                            budget)
        wide = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
            cells_per_row=32, bits_x=8, bits_w=8,
            temp_grid_c=(0.0, 27.0, 85.0), sigma_vth_fefet=54e-3, seed=5),
            calibration=unit.calibration())
        dense, fused = DenseNumpyBackend(wide), FusedBitPlaneBackend(wide)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 256, size=(6, 128))
        w = rng.integers(-127, 128, size=(128, 64))
        pd = dense.program(w, rng=np.random.default_rng(9))
        pf = fused.program(w, rng=np.random.default_rng(9))
        band = fused.guard_band(pf, 27.0)
        bits = np.arange(8)
        assert band.table is None
        assert band.n_uncertified * bits.size * pf.cells > 8 * budget
        tracemalloc.start()
        try:
            fused.corrections(pf, band, x, bits, temp_c=27.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * budget * np.dtype(np.float64).itemsize
        assert np.array_equal(fused.matmul(pf, x, temp_c=27.0),
                              dense.matmul(pd, x, temp_c=27.0))


class TestDecodedVsIdeal:
    def test_matches_ideal_at_reference_small_rows(self, unit):
        """At 27 degC with zero variation the array decodes exactly."""
        rng = np.random.default_rng(3)
        for backend in (DenseNumpyBackend(unit), FusedBitPlaneBackend(unit)):
            for shape in SHAPES:
                x, w = _operands(rng, shape)
                got = backend.matmul(backend.program(w), x, temp_c=27.0)
                assert np.array_equal(got, x @ w), (backend.name, shape)


class TestWeightStationary:
    def test_program_once_reuse_across_batches(self, unit):
        """One programmed array serves many activation batches."""
        fused = FusedBitPlaneBackend(unit)
        rng = np.random.default_rng(4)
        _, w = _operands(rng, (1, 24, 5))
        programmed = fused.program(w)
        for _ in range(3):
            x = rng.integers(0, 16, size=(4, 24))
            assert np.array_equal(
                fused.matmul(programmed, x, temp_c=27.0), x @ w)

    def test_variation_frozen_at_program_time(self, noisy_unit):
        """Two matmuls on one programmed array are identical — the error
        pattern is a property of the written die, not of the read."""
        dense = DenseNumpyBackend(noisy_unit)
        rng = np.random.default_rng(5)
        x, w = _operands(rng, (6, 32, 4))
        programmed = dense.program(w, rng=np.random.default_rng(7))
        a = dense.matmul(programmed, x, temp_c=27.0)
        b = dense.matmul(programmed, x, temp_c=27.0)
        assert np.array_equal(a, b)

    def test_reprogram_variation_redraws(self, noisy_unit):
        """reprogram_variation keeps the planes, redraws the offsets."""
        dense = DenseNumpyBackend(noisy_unit)
        rng = np.random.default_rng(6)
        x, w = _operands(rng, (8, 40, 6))
        p1 = dense.program(w, rng=np.random.default_rng(0))
        p2 = dense.reprogram_variation(p1, rng=np.random.default_rng(1))
        assert p2.w_planes is p1.w_planes          # decomposition reused
        assert not np.array_equal(p2.w_dv, p1.w_dv)
        # Different die, same weights: outputs may (and here do) differ.
        a = dense.matmul(p1, x, temp_c=85.0)
        b = dense.matmul(p2, x, temp_c=85.0)
        assert a.shape == b.shape

    def test_reprogram_variation_noop_for_nominal(self, unit):
        dense = DenseNumpyBackend(unit)
        programmed = dense.program(np.ones((8, 2), dtype=int))
        assert dense.reprogram_variation(programmed) is programmed


class TestValidation:
    def test_oversized_weights_raise_with_range(self, unit):
        dense = DenseNumpyBackend(unit)
        with pytest.raises(ValueError, match=r"\[-7, 7\]"):
            dense.program(np.array([[8]]))        # bits_w=4 -> |w| <= 7
        with pytest.raises(ValueError, match=r"\[-7, 7\]"):
            dense.program(np.array([[-9]]))

    def test_oversized_activations_raise_with_range(self, unit):
        dense = DenseNumpyBackend(unit)
        programmed = dense.program(np.array([[1]]))
        with pytest.raises(ValueError, match=r"\[0, 15\]"):
            dense.matmul(programmed, np.array([[16]]), temp_c=27.0)

    def test_negative_activations_raise(self, unit):
        fused = FusedBitPlaneBackend(unit)
        programmed = fused.program(np.array([[1]]))
        with pytest.raises(ValueError, match="unsigned"):
            fused.matmul(programmed, np.array([[-1]]), temp_c=27.0)

    def test_k_mismatch_raises(self, unit):
        dense = DenseNumpyBackend(unit)
        programmed = dense.program(np.ones((8, 2), dtype=int))
        with pytest.raises(ValueError, match="programmed for k=8"):
            dense.matmul(programmed, np.ones((1, 9), dtype=int), temp_c=27.0)

    def test_unit_matmul_validates_too(self, unit):
        """The one-shot convenience inherits the backend validation."""
        with pytest.raises(ValueError, match="exceeds"):
            unit.matmul(np.array([[99]]), np.array([[1]]), temp_c=27.0)
        with pytest.raises(ValueError, match="exceeds"):
            unit.matmul(np.array([[1]]), np.array([[99]]), temp_c=27.0)


class TestRegistry:
    def test_make_backend_resolves_names(self, unit):
        assert isinstance(make_backend("dense", unit), DenseNumpyBackend)
        assert isinstance(make_backend("fused", unit), FusedBitPlaneBackend)

    def test_make_backend_rejects_unknown(self, unit):
        with pytest.raises(ValueError, match="unknown array backend"):
            make_backend("quantum", unit)

    def test_unit_backend_property_follows_config(self):
        unit = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
            bits_x=2, bits_w=2, temp_grid_c=(0.0, 27.0, 85.0),
            backend="fused"))
        assert isinstance(unit.backend, FusedBitPlaneBackend)


class TestProgrammedArray:
    def test_zero_weights_program_no_planes(self, unit):
        dense = DenseNumpyBackend(unit)
        programmed = dense.program(np.zeros((8, 3), dtype=int))
        assert programmed.n_planes == 0
        out = dense.matmul(programmed, np.ones((2, 8), dtype=int),
                           temp_c=27.0)
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_level_table_cached_per_temperature(self, unit):
        """Satellite perf fix: np.interp runs once per temperature."""
        unit.level_table(33.0)
        assert 33.0 in unit._level_cache
        first = unit.level_table(33.0)
        assert first == unit.level_table(33.0)
        # Returned dicts are copies; mutating one must not poison the cache.
        first[(1, 1)] = -1.0
        assert unit.level_table(33.0)[(1, 1)] != -1.0


class TestPinnedSchedules:
    """keep_planes / active_bits: the tile-splitting hooks the compiler
    uses to keep every tile on the matrix-wide bit-serial schedule."""

    def test_plane_schedule_matches_natural_program_order(self, unit):
        from repro.array import plane_schedule

        rng = np.random.default_rng(10)
        _, w = _operands(rng, (1, 24, 5))
        backend = DenseNumpyBackend(unit)
        programmed = backend.program(w)
        natural = list(zip(programmed.signs, programmed.plane_bits))
        assert [(s, b) for s, b in plane_schedule(w, 4)] == natural

    def test_keep_planes_materializes_blank_planes(self, unit):
        """A pinned plane empty in this slice still occupies array rows."""
        backend = DenseNumpyBackend(unit)
        w = np.array([[1], [0]])          # only plane (+1, bit 0) natural
        schedule = ((1.0, 0), (1.0, 2), (-1.0, 1))
        programmed = backend.program(w, keep_planes=schedule)
        assert programmed.n_planes == 3
        assert np.array_equal(programmed.signs, [1.0, 1.0, -1.0])
        assert np.array_equal(programmed.plane_bits, [0, 2, 1])
        assert not programmed.w_planes[1].any()      # blank but present

    def test_keep_planes_equal_natural_when_complete(self, unit):
        from repro.array import plane_schedule

        backend = FusedBitPlaneBackend(unit)
        rng = np.random.default_rng(11)
        x, w = _operands(rng, (3, 16, 4))
        natural = backend.program(w)
        pinned = backend.program(w, keep_planes=plane_schedule(w, 4))
        for temp in (27.0, 85.0):
            assert np.array_equal(
                backend.matmul(natural, x, temp_c=temp),
                backend.matmul(pinned, x, temp_c=temp))

    def test_keep_planes_rejects_out_of_range_bit(self, unit):
        backend = DenseNumpyBackend(unit)
        with pytest.raises(ValueError, match="plane shift"):
            backend.program(np.ones((2, 2), dtype=int),
                            keep_planes=((1.0, 3),))   # bits_w=4 -> max 2

    @pytest.mark.parametrize("backend_name", ["dense", "fused"])
    def test_forced_active_bits_noop_on_populated_bits(self, unit,
                                                       backend_name):
        """Forcing exactly the populated bits changes nothing."""
        backend = make_backend(backend_name, unit)
        rng = np.random.default_rng(12)
        x, w = _operands(rng, (4, 24, 3))
        programmed = backend.program(w)
        ored = int(np.bitwise_or.reduce(x, axis=None))
        active = ((ored >> np.arange(4)) & 1).astype(bool)
        for temp in (27.0, 85.0):
            assert np.array_equal(
                backend.matmul(programmed, x, temp_c=temp),
                backend.matmul(programmed, x, temp_c=temp,
                               active_bits=active))

    @pytest.mark.parametrize("backend_name", ["dense", "fused"])
    def test_forced_schedule_equals_spanning_array(self, unit,
                                                   backend_name):
        """The tiling identity at backend level: K-splitting a matrix into
        chunk-aligned slices with pinned planes and forced activation bits
        reproduces the spanning array's decode exactly."""
        from repro.array import plane_schedule

        backend = make_backend(backend_name, unit)
        rng = np.random.default_rng(13)
        x, w = _operands(rng, (4, 40, 6))
        whole = backend.program(w)
        schedule = plane_schedule(w, 4)
        active = np.ones(4, dtype=bool)
        for temp in (27.0, 85.0, 0.0):
            reference = backend.matmul(whole, x, temp_c=temp,
                                       active_bits=active)
            split = np.zeros_like(reference)
            for k0 in range(0, 40, 16):          # 16, 16, 8: ragged edge
                k1 = min(k0 + 16, 40)
                tile = backend.program(w[k0:k1], keep_planes=schedule)
                split += backend.matmul(tile, x[:, k0:k1], temp_c=temp,
                                        active_bits=active)
            assert np.array_equal(split, reference), temp

    def test_active_bits_shape_validated(self, unit):
        backend = DenseNumpyBackend(unit)
        rng = np.random.default_rng(14)
        x, w = _operands(rng, (2, 8, 2))
        programmed = backend.program(w)
        with pytest.raises(ValueError, match="active_bits"):
            backend.matmul(programmed, x, temp_c=27.0,
                           active_bits=np.ones(7, dtype=bool))


class TestDriftedDecode:
    """Retention drift in the decode path (time-dependent device state).

    Contracts: ``retention=None`` and ``retention=1.0`` are the same
    literal code path (bit-identical to the pre-drift backends); any
    ``retention < 1`` keeps dense and fused bit-identical to each other
    (the drift transform is applied to the level tables, not
    per-backend); and enough drift must actually move decoded counts —
    a drift model that never changes an output is untestable.
    """

    def test_none_and_exact_one_bit_identical(self, unit):
        dense = DenseNumpyBackend(unit)
        rng = np.random.default_rng(21)
        x, w = _operands(rng, (3, 24, 5))
        programmed = dense.program(w)
        for temp in TEMPS:
            base = dense.matmul(programmed, x, temp_c=temp)
            assert np.array_equal(
                base, dense.matmul(programmed, x, temp_c=temp,
                                   retention=None))
            assert np.array_equal(
                base, dense.matmul(programmed, x, temp_c=temp,
                                   retention=1.0))

    @pytest.mark.parametrize("retention", [0.95, 0.8, 0.5])
    def test_dense_fused_bit_identical_under_drift(self, unit, retention):
        dense, fused = DenseNumpyBackend(unit), FusedBitPlaneBackend(unit)
        rng = np.random.default_rng(22)
        for shape in SHAPES[:3]:
            x, w = _operands(rng, shape)
            pd, pf = dense.program(w), fused.program(w)
            for temp in (27.0, 85.0):
                assert np.array_equal(
                    dense.matmul(pd, x, temp_c=temp, retention=retention),
                    fused.matmul(pf, x, temp_c=temp, retention=retention)
                ), (shape, temp, retention)

    def test_dense_fused_bit_identical_under_drift_with_variation(
            self, noisy_unit):
        dense = DenseNumpyBackend(noisy_unit)
        fused = FusedBitPlaneBackend(noisy_unit)
        rng = np.random.default_rng(23)
        x, w = _operands(rng, (4, 40, 9))
        pd = dense.program(w, rng=np.random.default_rng(7))
        pf = fused.program(w, rng=np.random.default_rng(7))
        for temp in (27.0, 85.0):
            for retention in (0.9, 0.6):
                assert np.array_equal(
                    dense.matmul(pd, x, temp_c=temp, retention=retention),
                    fused.matmul(pf, x, temp_c=temp, retention=retention))

    def test_drift_eventually_moves_decodes(self, unit):
        dense = DenseNumpyBackend(unit)
        rng = np.random.default_rng(24)
        x, w = _operands(rng, (5, 40, 9))
        programmed = dense.program(w)
        base = dense.matmul(programmed, x, temp_c=27.0)
        drifted = dense.matmul(programmed, x, temp_c=27.0, retention=0.5)
        assert not np.array_equal(base, drifted)

    def test_multibit_drift_keeps_backends_identical(self):
        from repro.array import BehavioralMacConfig, BitSerialMacUnit

        unit = BitSerialMacUnit(TwoTOneFeFETCell(), BehavioralMacConfig(
            bits_x=4, bits_w=4, temp_grid_c=(0.0, 27.0, 85.0),
            bits_per_cell=2))
        dense, fused = DenseNumpyBackend(unit), FusedBitPlaneBackend(unit)
        rng = np.random.default_rng(25)
        x, w = _operands(rng, (3, 24, 5))
        pd, pf = dense.program(w), fused.program(w)
        base = dense.matmul(pd, x, temp_c=27.0)
        for retention in (1.0, 0.9, 0.6):
            got_d = dense.matmul(pd, x, temp_c=27.0, retention=retention)
            got_f = fused.matmul(pf, x, temp_c=27.0, retention=retention)
            assert np.array_equal(got_d, got_f), retention
            if retention == 1.0:
                assert np.array_equal(got_d, base)

    def test_retention_fraction_gate(self):
        from repro.array.backend import retention_fraction

        assert retention_fraction(None) is None
        assert retention_fraction(1.0) is None
        assert retention_fraction(0.7) == 0.7
        for bad in (0.0, -0.1, 1.0001, 2.0):
            with pytest.raises(ValueError, match="retention"):
                retention_fraction(bad)
