"""The certified guard band: arrays with variation served as one exact
GEMM plus an explicit decode of only the entries that can misread.

A (plane, chunk, column) entry is certified when its worst-case
variation offset stays strictly inside its nominal decode margin, and
the band runs only where the nominal decode is exact.  These tests pin
where it runs and how much it certifies, and check that the fused chip's
logits and metering stay bit-identical to the dense chip's (which decodes
every entry explicitly) on both sides of the gate, across tilings,
replicas and a bounded cache of drifted keys.
"""

import sys
import threading

import numpy as np
import pytest

from repro.array import FusedBitPlaneBackend
from repro.compiler import Chip
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential

TEMPS = (0.0, 27.0, 55.0, 85.0)
SIGMAS = (15e-3, 54e-3, 100e-3)
RETENTIONS = (None, 0.99, 0.8)
PATH_COUNTERS = ("exact_layer_matmuls", "analog_layer_matmuls",
                 "certified_layer_matmuls", "explicit_row_ops")

#: (bits per cell, retention) -> temperatures where the nominal decode is
#: exact, so tiles with variation run the guard band.
GATE = {
    (1, None): {0.0, 27.0, 55.0, 85.0},
    (1, 0.99): {0.0, 27.0, 55.0, 85.0},
    (1, 0.8): set(),
    (2, None): {0.0, 27.0, 55.0},
    (2, 0.99): {0.0, 27.0, 55.0},
    (2, 0.8): set(),
}


def build_model():
    rng = np.random.default_rng(0)
    return Sequential([Conv2D(2, 4, kernel=3, rng=rng), ReLU(), Flatten(),
                       Dense(64, 5, rng=rng)])


def images(n=3, seed=1):
    return np.random.default_rng(seed).normal(size=(n, 4, 4, 2))


def certified_share(chip, temp_c, retention=None):
    """Certified fraction of every (plane, chunk, column) entry."""
    bands = [chip.backend.guard_band(tile, temp_c, retention)
             for tile in chip._programmed.values()]
    assert all(band is not None for band in bands)
    return (sum(int(band.certified.sum()) for band in bands)
            / sum(band.certified.size for band in bands))


def assert_twins_agree(fused, dense, x, temp_c, banded):
    """Bit-identical logits and metering; the counters name the path."""
    layers = len(fused.program.layers)
    assert np.array_equal(fused.forward(x, temp_c=temp_c),
                          dense.forward(x, temp_c=temp_c))
    got, want = fused.meter.snapshot(), dense.meter.snapshot()
    assert ({k: v for k, v in got.items() if k not in PATH_COUNTERS}
            == {k: v for k, v in want.items() if k not in PATH_COUNTERS})
    for snap in (got, want):
        assert snap["exact_layer_matmuls"] == 0
        assert snap["analog_layer_matmuls"] == layers
    assert got["certified_layer_matmuls"] == (layers if banded else 0)
    assert want["certified_layer_matmuls"] == 0
    assert want["explicit_row_ops"] == want["row_ops"]
    if banded:
        assert got["explicit_row_ops"] < got["row_ops"]
    else:
        assert got["explicit_row_ops"] == got["row_ops"]


class TestDenseOracle:
    @pytest.mark.parametrize("bits_per_cell", (1, 2))
    @pytest.mark.parametrize("retention", RETENTIONS)
    @pytest.mark.parametrize("temp", TEMPS)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_grid(self, twins, sigma, temp, retention, bits_per_cell):
        fused, dense = twins(build_model(), retention=retention,
                             tile_rows=None, tile_cols=None,
                             sigma_vth_fefet=sigma,
                             bits_per_cell=bits_per_cell)
        banded = temp in GATE[(bits_per_cell, retention)]
        assert fused.backend.exact_decode(temp, retention) is banded
        assert_twins_agree(fused, dense, images(), temp, banded)

    @pytest.mark.parametrize("bits_per_cell, temp, banded",
                             [(1, 27.0, True), (1, 85.0, True),
                              (2, 27.0, True), (2, 85.0, False)])
    def test_ragged_tiling(self, twins, bits_per_cell, temp, banded):
        """Conv N = 4 splits into 3 + 1 columns and dense N = 5 into
        3 + 2, so single- and multi-column tiles both run the band."""
        fused, dense = twins(build_model(), tile_rows=16, tile_cols=3,
                             sigma_vth_fefet=54e-3,
                             bits_per_cell=bits_per_cell)
        assert {tile.n for tile in fused._programmed.values()} == {1, 2, 3}
        assert_twins_agree(fused, dense, images(), temp, banded)

    def test_two_replica_fleet(self, twins):
        fused, dense = twins(build_model(), tile_rows=16, tile_cols=3,
                             sigma_vth_fefet=54e-3, seed=3)
        fleets = [Chip.build_replicas(chip.program, chip.design, 2,
                                      first=chip)
                  for chip in (fused, dense)]
        x = images(n=2, seed=4)
        for replica, (f, d) in enumerate(zip(*fleets)):
            assert_twins_agree(f, d, x, 27.0 + 58.0 * replica, True)


class TestCertificate:
    @pytest.mark.parametrize("temp", TEMPS)
    def test_certifies_everything_at_15_mv(self, twins, temp):
        fused, _ = twins(build_model(), tile_rows=None, tile_cols=None,
                         sigma_vth_fefet=15e-3)
        assert certified_share(fused, temp) == 1.0

    @pytest.mark.parametrize("temp", TEMPS)
    def test_fixture_misreads_outside_the_band(self, twins, temp):
        """At 54 mV some entries stay uncertified, and the fixture drives
        some of them to misread: the dense logits differ from the exact
        ones a nominal chip computes.  A certificate that accepted those
        entries would serve the exact logits and fail the oracle."""
        fused, dense = twins(build_model(), tile_rows=None, tile_cols=None,
                             sigma_vth_fefet=54e-3)
        nominal, _ = twins(build_model(), tile_rows=None, tile_cols=None)
        assert 0.0 < certified_share(fused, temp) < 1.0
        x = images()
        served = dense.forward(x, temp_c=temp)
        assert not np.array_equal(served, nominal.forward(x, temp_c=temp))
        assert np.array_equal(fused.forward(x, temp_c=temp), served)

    def test_gate_failure_runs_no_band(self, twins):
        fused, _ = twins(build_model(), sigma_vth_fefet=54e-3,
                         bits_per_cell=2)
        tile = fused.programmed_tile(0)
        assert fused.backend.guard_band(tile, 85.0) is None
        assert fused.backend.guard_band(tile, 27.0, 0.8) is None
        assert fused.backend.guard_band(tile, 27.0) is not None

    def test_nominal_and_dense_run_no_band(self, twins):
        nominal, _ = twins(build_model())
        assert nominal.backend.guard_band(
            nominal.programmed_tile(0), 27.0) is None
        _, dense = twins(build_model(), sigma_vth_fefet=54e-3)
        assert dense.backend.guard_band(
            dense.programmed_tile(0), 27.0) is None

    def test_replica_certificate_uses_its_own_variation(self, twins):
        """Replicas share the backend and the tiles' precompute cache,
        but each draws its own variation: replica 1's certificate must
        be the one a fresh backend derives from replica 1's ``w_dv``."""
        fused, dense = twins(build_model(), tile_rows=None, tile_cols=None,
                             sigma_vth_fefet=54e-3)
        chips = Chip.build_replicas(fused.program, fused.design, 2,
                                    first=fused)
        dense_chips = Chip.build_replicas(dense.program, dense.design, 2,
                                          first=dense)
        x = images()
        for chip in chips:
            chip.forward(x, temp_c=27.0)
        fresh = FusedBitPlaneBackend(fused.unit)
        differs = False
        for key, tile in chips[1]._programmed.items():
            assert tile.cache is chips[0]._programmed[key].cache
            band = fused.backend.guard_band(tile, 27.0)
            first = fused.backend.guard_band(chips[0]._programmed[key],
                                             27.0)
            assert band is not first
            assert np.array_equal(band.certified, fresh.guard_band(
                tile, 27.0).certified)
            differs |= not np.array_equal(band.certified, first.certified)
        assert differs
        assert np.array_equal(chips[1].forward(x, temp_c=27.0),
                              dense_chips[1].forward(x, temp_c=27.0))


class TestDriftedKeyBound:
    def test_lru_holds_at_most_the_bound(self, twins, monkeypatch):
        """A drifting chip reads a new retention every batch; only the
        most recent drifted keys (records and their guard bands) stay
        cached, and every read still matches the dense chip."""
        monkeypatch.setattr(FusedBitPlaneBackend, "drifted_keys", 3)
        fused, dense = twins(build_model(), retention=1.0,
                             sigma_vth_fefet=54e-3)
        x = images(n=2)
        retentions = [1.0 - 0.001 * i for i in range(8)]
        for retention in retentions:
            fused.drift.value = dense.drift.value = retention
            assert np.array_equal(fused.forward(x, temp_c=27.0),
                                  dense.forward(x, temp_c=27.0))
        backend = fused.backend
        assert backend._drifted.keys() == [(27.0, r) for r in
                                           retentions[-3:]]
        assert list(backend._records) == [27.0]
        assert fused.meter.snapshot()["certified_layer_matmuls"] == (
            len(retentions) * len(fused.program.layers))
        bands = [len(backend._drifted.get(key).guard_bands)
                 for key in backend._drifted.keys()]
        assert bands == [len(fused._programmed)] * 3

    def test_concurrent_drifted_reads(self, twins, monkeypatch):
        """Threads sharing one backend fill and evict the bounded cache
        concurrently; every result still matches the dense backend."""
        monkeypatch.setattr(FusedBitPlaneBackend, "drifted_keys", 2)
        fused, dense = twins(build_model(), sigma_vth_fefet=54e-3)
        tiles = list(fused._programmed.values())
        codes = [np.random.default_rng(i).integers(0, 256, (4, tile.k))
                 for i, tile in enumerate(tiles)]
        reads = [(temp, 1.0 - 0.002 * i)
                 for i in range(6) for temp in (0.0, 85.0)]
        got = {}

        def serve(thread):
            for temp, retention in reads[thread::3]:
                for i, tile in enumerate(tiles):
                    got[(temp, retention, i)] = fused.backend.matmul(
                        tile, codes[i], temp_c=temp, retention=retention)

        threads = [threading.Thread(target=serve, args=(i,))
                   for i in range(3)]
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
        assert len(fused.backend._drifted) <= 2
        assert len(got) == len(reads) * len(tiles)
        for (temp, retention, i), result in got.items():
            assert np.array_equal(result, dense.backend.matmul(
                tiles[i], codes[i], temp_c=temp, retention=retention))
