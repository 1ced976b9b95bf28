"""The exact-decode fast path: gate truth table and dense-oracle checks.

A chip serves a layer as one float64 GEMM when no tile carries
programmed-in variation and the backend proves its decode LUT is the
identity at the read's ``(temp_c, retention)``.  The table below pins
where that proof holds for the calibrated cells; the oracle tests check
that the fused chip's logits and meter snapshots stay bit-identical to
the dense chip's (which always runs the analog model) on both sides of
the gate, and that the path counters say which side ran.
"""

import sys
import threading

import numpy as np
import pytest

from repro.array import (
    BehavioralMacConfig,
    BitSerialMacUnit,
    DenseNumpyBackend,
    FusedBitPlaneBackend,
)
from repro.cells import FeFET1RCell, TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential
from repro.serve import ChipPool

TEMPS = (0.0, 27.0, 55.0, 85.0)
DESIGNS = {"2T-1FeFET": TwoTOneFeFETCell(), "FeFET-1R": FeFET1RCell()}

#: (design, bits per cell, retention) -> temperatures whose decode LUT is
#: the identity on every reachable triple.
EXACT = {
    ("2T-1FeFET", 1, None): {0.0, 27.0, 55.0, 85.0},
    ("2T-1FeFET", 1, 0.99): {0.0, 27.0, 55.0, 85.0},
    ("2T-1FeFET", 1, 0.8): set(),
    ("2T-1FeFET", 2, None): {0.0, 27.0, 55.0},
    ("FeFET-1R", 1, None): {27.0},
}
CASES = [(*key, temp, temp in exact)
         for key, exact in EXACT.items() for temp in TEMPS]


@pytest.fixture(scope="module")
def calibrations():
    """One circuit calibration per design; every unit below restores it."""
    return {name: BitSerialMacUnit(design).calibration()
            for name, design in DESIGNS.items()}


def restored_unit(calibrations, name, mapping):
    return BitSerialMacUnit(DESIGNS[name], BehavioralMacConfig(
        cells_per_row=mapping.cells_per_row, bits_x=mapping.bits,
        bits_w=mapping.bits, sigma_vth_fefet=mapping.sigma_vth_fefet,
        seed=mapping.seed, backend="fused",
        bits_per_cell=mapping.bits_per_cell),
        calibration=calibrations[name])


def build_model():
    rng = np.random.default_rng(0)
    return Sequential([Conv2D(2, 4, kernel=3, rng=rng), ReLU(), Flatten(),
                       Dense(64, 5, rng=rng)])


def images(n=3, seed=1):
    return np.random.default_rng(seed).normal(size=(n, 4, 4, 2))


class FrozenClock:
    """A drift clock stuck at one retention (all a forward pass reads)."""

    def __init__(self, retention):
        self.value = retention

    def retention(self):
        return self.value


def twin_chips(calibrations, name, retention=None, **mapping_kw):
    """A fused chip and its dense-backend twin over one restored unit."""
    chips = {}
    for backend in ("fused", "dense"):
        mapping = MappingConfig(backend=backend, **mapping_kw)
        program = compile_model(build_model(), DESIGNS[name], mapping)
        unit = (chips["fused"].unit if chips
                else restored_unit(calibrations, name, mapping))
        chips[backend] = Chip(program, DESIGNS[name], unit=unit)
        if retention is not None:
            chips[backend].enable_drift(state=FrozenClock(retention))
    return chips["fused"], chips["dense"]


def metered(snapshot):
    """The snapshot without the two path counters."""
    return {k: v for k, v in snapshot.items()
            if k not in ("exact_layer_matmuls", "analog_layer_matmuls")}


def assert_twins_agree(fused, dense, x, temp_c, exact):
    """Bit-identical logits and metering; the counters name the path."""
    layers = len(fused.program.layers)
    assert np.array_equal(fused.forward(x, temp_c=temp_c),
                          dense.forward(x, temp_c=temp_c))
    got, want = fused.meter.snapshot(), dense.meter.snapshot()
    assert metered(got) == metered(want)
    assert got["exact_layer_matmuls"] == (layers if exact else 0)
    assert got["analog_layer_matmuls"] == (0 if exact else layers)
    assert want["exact_layer_matmuls"] == 0
    assert want["analog_layer_matmuls"] == layers


class TestGate:
    @pytest.mark.parametrize("name, bits_per_cell, retention, temp, exact",
                             CASES)
    def test_truth_table(self, calibrations, name, bits_per_cell, retention,
                         temp, exact):
        mapping = MappingConfig(bits_per_cell=bits_per_cell)
        unit = restored_unit(calibrations, name, mapping)
        assert FusedBitPlaneBackend(unit).exact_decode(
            temp, retention) is exact
        assert DenseNumpyBackend(unit).exact_decode(
            temp, retention) is False

    def test_verdict_cached_beside_the_lut(self, calibrations):
        unit = restored_unit(calibrations, "2T-1FeFET", MappingConfig())
        backend = FusedBitPlaneBackend(unit)
        assert backend.exact_decode(85.0, 0.8) is False
        assert backend._exact_cache == {(85.0, 0.8): False}
        assert set(backend._lut_cache) == {(85.0, 0.8)}
        # A fresh clock (exactly 1.0) is the undrifted key.
        assert backend.exact_decode(27.0, 1.0) is True
        assert backend._exact_cache[27.0] is True


class TestDenseOracle:
    @pytest.mark.parametrize("name, bits_per_cell, retention, temp, exact",
                             CASES)
    def test_gate_grid(self, calibrations, name, bits_per_cell, retention,
                       temp, exact):
        fused, dense = twin_chips(calibrations, name, retention,
                                  tile_rows=None, tile_cols=None,
                                  bits_per_cell=bits_per_cell)
        assert_twins_agree(fused, dense, images(), temp, exact)

    @pytest.mark.parametrize("bits_per_cell, temp, exact",
                             [(1, 27.0, True), (2, 27.0, True),
                              (2, 85.0, False)])
    def test_ragged_tiling(self, calibrations, bits_per_cell, temp, exact):
        """Conv K = 18 and dense N = 5 both split ragged at 16 x 3."""
        fused, dense = twin_chips(calibrations, "2T-1FeFET",
                                  tile_rows=16, tile_cols=3,
                                  bits_per_cell=bits_per_cell)
        assert fused.program.n_tiles > len(fused.program.layers)
        assert_twins_agree(fused, dense, images(), temp, exact)

    @pytest.mark.parametrize("sigma, exact", [(0.0, True), (54e-3, False)])
    def test_two_replica_fleet(self, calibrations, sigma, exact):
        """Programmed-in variation keeps every replica on the analog
        path; a nominal fleet serves every replica through the GEMM."""
        fused, dense = twin_chips(calibrations, "2T-1FeFET", tile_rows=16,
                                  tile_cols=3, sigma_vth_fefet=sigma, seed=3)
        fleets = [Chip.build_replicas(chip.program, chip.design, 2,
                                      first=chip)
                  for chip in (fused, dense)]
        x = images(n=2, seed=4)
        for replica, (f, d) in enumerate(zip(*fleets)):
            assert_twins_agree(f, d, x, 27.0 + 58.0 * replica, exact)


class TestConcurrency:
    def test_path_counts_survive_concurrent_forwards(self, calibrations):
        """Replicas share one backend, hence one verdict cache, and a
        session may share one chip across threads: every layer matmul
        must be counted on its path, with fresh caches filled
        concurrently."""
        fused, _ = twin_chips(calibrations, "2T-1FeFET")
        x = images(n=1)
        temps = (0.0, 27.0, 55.0, 85.0, 0.0, 27.0)

        def serve(temp):
            for _ in range(10):
                fused.forward(x, temp_c=temp)

        threads = [threading.Thread(target=serve, args=(t,)) for t in temps]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = fused.meter.snapshot()
        layers = len(fused.program.layers)
        assert snap["exact_layer_matmuls"] == len(temps) * 10 * layers
        assert snap["analog_layer_matmuls"] == 0


class TestValidation:
    """Activation codes used to be validated per tile inside
    ``backend.matmul``; the exact path never calls it, so the chip checks
    the codes itself before anything is metered."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activation_raises(self, calibrations, bad):
        fused, dense = twin_chips(calibrations, "2T-1FeFET")
        assert fused.backend.exact_decode(27.0)
        x = images()
        x[1, 2, 3, 0] = bad
        for chip in (fused, dense):
            before = chip.meter.snapshot()
            with pytest.raises(ValueError,
                               match="activation codes must be unsigned"):
                chip.forward(x, temp_c=27.0)
            assert chip.meter.snapshot() == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_threaded_pool_fails_poisoned_request(self, calibrations):
        fused, dense = twin_chips(calibrations, "2T-1FeFET")
        chips = Chip.build_replicas(fused.program, fused.design, 2,
                                    first=fused)
        good = images(n=2, seed=5)
        poisoned = good.copy()
        poisoned[0, 0, 0, 1] = np.nan
        with ChipPool(fused.program, fused.design, chips=chips,
                      max_batch_size=4) as pool:
            with pytest.raises(ValueError, match="activation codes"):
                pool.submit(poisoned, temp_c=27.0).result(timeout=30.0)
            served = pool.submit(good, temp_c=27.0).result(timeout=30.0)
        assert np.array_equal(served.logits,
                              dense.forward(good, temp_c=27.0))
        assert sum(chip.meter.snapshot()["exact_layer_matmuls"]
                   for chip in chips) == len(fused.program.layers)
