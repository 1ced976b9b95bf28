"""The certified guard band: arrays with variation served as one exact
GEMM plus integer corrections of only the entries that can misread.

A (plane, chunk, column) entry is certified when its worst-case
variation offset stays strictly inside the decode bucket of its exact
count.  The band runs at every temperature and retention: where the
nominal decode misreads a reachable triple, the entries at that digit
sum are simply never certified.  The chip serves a variation layer as
one layer GEMM plus each band's corrections, taken from a per-pattern
table wherever it fits the variation block budget and from the explicit
per-instance decode on tiles too wide to tabulate.  These tests pin how
much the band certifies and which correction source serves it, and
check that the fused chip's logits and metering stay bit-identical to
the dense chip's (which decodes every entry explicitly) on both sides of
the exact-decode gate, across tilings, replicas and a bounded cache of
drifted keys.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.array import FusedBitPlaneBackend
from repro.compiler import Chip
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential
from repro.serve import build_serving_workload

TEMPS = (0.0, 27.0, 55.0, 85.0)
SIGMAS = (15e-3, 54e-3, 100e-3)
RETENTIONS = (None, 0.99, 0.8)
PATH_COUNTERS = ("exact_layer_matmuls", "analog_layer_matmuls",
                 "certified_layer_matmuls", "explicit_row_ops")

#: (bits per cell, retention) -> temperatures where the nominal decode is
#: exact.  Off them the guard band still serves every variation layer,
#: but certifies no entry at a digit sum that can misdecode.
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


def misdecoding_digit_sums(chip, temp_c, retention):
    """Digit sums ``W`` at which some reachable ``(S11, W, n_x1)`` triple
    decodes to a count other than ``S11`` on the nominal LUT."""
    cells = chip.mapping.cells_per_row
    d = (1 << chip.mapping.bits_per_cell) - 1
    lut = chip.backend.decode_lut(temp_c, retention).reshape(
        cells * d + 1, cells * d + 1, cells + 1)
    return sorted({w for w in range(cells * d + 1)
                   for n_x1 in range(cells + 1)
                   for s11 in range(max(0, w - d * (cells - n_x1)),
                                    min(w, d * n_x1) + 1)
                   if lut[s11, w, n_x1] != s11})


def certified_share(chip, temp_c, retention=None):
    """Certified fraction of every (plane, chunk, column) entry."""
    bands = [chip.backend.guard_band(tile, temp_c, retention)
             for tile in chip._programmed.values()]
    assert all(band is not None for band in bands)
    return (sum(int(band.certified.sum()) for band in bands)
            / sum(band.certified.size for band in bands))


def assert_twins_agree(fused, dense, x, temp_c):
    """Bit-identical logits and metering; the counters name the path:
    every fused layer matmul ran a guard band, and the dense chip decoded
    every entry explicitly."""
    layers = len(fused.program.layers)
    assert np.array_equal(fused.forward(x, temp_c=temp_c),
                          dense.forward(x, temp_c=temp_c))
    got, want = fused.meter.snapshot(), dense.meter.snapshot()
    assert ({k: v for k, v in got.items() if k not in PATH_COUNTERS}
            == {k: v for k, v in want.items() if k not in PATH_COUNTERS})
    for snap in (got, want):
        assert snap["exact_layer_matmuls"] == 0
        assert snap["analog_layer_matmuls"] == layers
    assert got["certified_layer_matmuls"] == layers
    assert want["certified_layer_matmuls"] == 0
    assert want["explicit_row_ops"] == want["row_ops"]
    assert got["explicit_row_ops"] < got["row_ops"]


@pytest.fixture
def spy(monkeypatch):
    """Counts the fused backend's tile matmuls and a fused chip's layer
    GEMMs."""
    calls = {"tile_matmuls": 0, "layer_gemms": 0}
    tile_matmul = FusedBitPlaneBackend.matmul
    exact_weights = Chip._exact_weights

    def matmul(self, *args, **kwargs):
        calls["tile_matmuls"] += 1
        return tile_matmul(self, *args, **kwargs)

    def weights(self, plan):
        if isinstance(self.backend, FusedBitPlaneBackend):
            calls["layer_gemms"] += 1
        return exact_weights(self, plan)

    monkeypatch.setattr(FusedBitPlaneBackend, "matmul", matmul)
    monkeypatch.setattr(Chip, "_exact_weights", weights)
    return calls


def assert_layer_path(spy, fused, forwards=1):
    """Every layer matmul took the layer GEMM, at every key, and the
    backend's tile matmul never ran."""
    assert spy["layer_gemms"] == forwards * len(fused.program.layers)
    assert spy["tile_matmuls"] == 0


class TestDenseOracle:
    @pytest.mark.parametrize("bits_per_cell", (1, 2))
    @pytest.mark.parametrize("retention", RETENTIONS)
    @pytest.mark.parametrize("temp", TEMPS)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_grid(self, twins, spy, sigma, temp, retention,
                  bits_per_cell):
        fused, dense = twins(build_model(), retention=retention,
                             tile_rows=None, tile_cols=None,
                             sigma_vth_fefet=sigma,
                             bits_per_cell=bits_per_cell)
        exact = temp in GATE[(bits_per_cell, retention)]
        assert fused.backend.exact_decode(temp, retention) is exact
        assert_twins_agree(fused, dense, images(), temp)
        assert_layer_path(spy, fused)
        if not exact:
            # Misdecoding digit sums stay uncertified: the band certifies
            # less than at the fresh reference temperature.
            assert (certified_share(fused, temp, retention)
                    < certified_share(fused, 27.0))

    @pytest.mark.parametrize("bits_per_cell, temp, exact",
                             [(1, 27.0, True), (1, 85.0, True),
                              (2, 27.0, True), (2, 85.0, False)])
    def test_ragged_tiling(self, twins, spy, bits_per_cell, temp, exact):
        """Conv N = 4 splits into 3 + 1 columns and dense N = 5 into
        3 + 2, so single- and multi-column tiles both run the band."""
        fused, dense = twins(build_model(), tile_rows=16, tile_cols=3,
                             sigma_vth_fefet=54e-3,
                             bits_per_cell=bits_per_cell)
        assert {tile.n for tile in fused._programmed.values()} == {1, 2, 3}
        assert fused.backend.exact_decode(temp) is exact
        assert_twins_agree(fused, dense, images(), temp)
        assert_layer_path(spy, fused)

    def test_two_replica_fleet(self, twins, spy):
        fused, dense = twins(build_model(), tile_rows=16, tile_cols=3,
                             sigma_vth_fefet=54e-3, seed=3)
        fleets = [Chip.build_replicas(chip.program, chip.design, 2,
                                      first=chip)
                  for chip in (fused, dense)]
        x = images(n=2, seed=4)
        for replica, (f, d) in enumerate(zip(*fleets)):
            assert_twins_agree(f, d, x, 27.0 + 58.0 * replica)
        assert_layer_path(spy, fused, forwards=2)


def scattered(m, n, cols, fixes):
    """Corrections at their tile columns, as a dense ``(m, n)`` array."""
    out = np.zeros((m, n))
    out[:, cols] = fixes
    return out


def assert_sources_agree(backend, tile, band, x, bits, temp,
                         retention=None):
    """The band's table and the per-instance decode correct ``x``
    identically, bit for bit."""
    decoded = dataclasses.replace(band, table=None)
    want = scattered(x.shape[0], tile.n, *backend.corrections(
        tile, decoded, x, bits, temp_c=temp, retention=retention))
    got = scattered(x.shape[0], tile.n, *backend.corrections(
        tile, band, x, bits, temp_c=temp, retention=retention))
    assert np.array_equal(got, want)
    return want


def every_pattern(tile):
    """Codes driving every ``2**cells`` input pattern into every chunk on
    every activation bit (one row per pattern), over the tile's ``k``."""
    q = np.arange(1 << tile.cells)
    cells = (q[:, None] >> np.arange(tile.cells)) & 1
    return 255 * np.tile(cells, tile.chunks)[:, :tile.k]


class TestCorrectionSources:
    """Bands serve their per-pattern tables at every key, drifted ones
    included; tiles whose table would overflow the variation block
    budget keep the per-instance decode.  Both give the same
    corrections."""

    @pytest.fixture(scope="class")
    def benchmark_fleet(self, twins):
        """The ``serve-variation`` benchmark's two replicas."""
        model, _ = build_serving_workload(0, width=4, image_size=8, seed=0)
        fused, _ = twins(model, tile_rows=32, tile_cols=16,
                         sigma_vth_fefet=54e-3)
        return Chip.build_replicas(fused.program, fused.design, 2,
                                   first=fused)

    @pytest.mark.parametrize("temp", TEMPS)
    def test_benchmark_bands_carry_tables(self, benchmark_fleet, temp):
        rng = np.random.default_rng(int(temp))
        fixed = 0
        for chip in benchmark_fleet:
            for tile in chip._programmed.values():
                band = chip.backend.guard_band(tile, temp)
                assert band.table is not None
                x = rng.integers(0, 256, (6, tile.k))
                sub = np.sort(rng.choice(8, size=5, replace=False))
                mask = int(np.sum(np.left_shift(1, sub)))
                for codes, bits in ((x, np.arange(8)), (x & mask, sub),
                                    (every_pattern(tile), np.arange(8))):
                    fixed += np.count_nonzero(assert_sources_agree(
                        chip.backend, tile, band, codes, bits, temp))
        assert fixed   # the fixture does exercise misreads

    @pytest.mark.parametrize("temp", (27.0, 85.0))
    def test_drifted_key_decodes_per_instance(self, twins, temp):
        """A drifted key tabulates its corrections too, and the table
        corrects every input pattern exactly as the per-instance decode
        at that key does — off the exact gate (retention 0.8) as on it."""
        fused, dense = twins(build_model(), retention=0.99,
                             sigma_vth_fefet=54e-3)
        assert_twins_agree(fused, dense, images(), temp)
        fixed = 0
        for retention in (0.99, 0.8):
            for tile in fused._programmed.values():
                band = fused.backend.guard_band(tile, temp, retention)
                assert band.table is not None
                fixed += np.count_nonzero(assert_sources_agree(
                    fused.backend, tile, band, every_pattern(tile),
                    np.arange(8), temp, retention))
        assert fixed

    def test_wide_rows_past_the_budget_decode_per_instance(self, twins):
        """A 16-cell table spans 2**16 patterns per entry: tiles with more
        than four uncertified entries overflow the budget and keep the
        per-instance decode, the rest tabulate, and the chip still
        matches the dense oracle."""
        fused, dense = twins(build_model(), cells_per_row=16,
                             tile_rows=None, tile_cols=None,
                             sigma_vth_fefet=54e-3)
        assert_twins_agree(fused, dense, images(), 27.0)
        budget = FusedBitPlaneBackend.block_budget_variation
        overflow = 0
        for tile in fused._programmed.values():
            band = fused.backend.guard_band(tile, 27.0)
            over = (band.n_uncertified * tile.cells << tile.cells) > budget
            assert (band.table is None) is over
            overflow += over
        assert overflow

    def test_fully_certified_wide_rows_build_no_table(self, twins):
        """The benchmark model on 32-cell rows at sigma = 1 mV: a table
        spans 2**32 patterns per entry, so no band carries one, not even
        a band that certifies every entry (sizing that table by its zero
        uncertified entries once asked for 32 GiB).  The entries left
        uncertified at 85 degC decode per instance."""
        model, requests = build_serving_workload(3, width=4, image_size=8,
                                                 seed=0)
        uncertified = {}
        for temp in (0.0, 27.0, 85.0):
            fused, dense = twins(model, cells_per_row=32, tile_rows=64,
                                 sigma_vth_fefet=1e-3)
            assert_twins_agree(fused, dense, np.concatenate(requests), temp)
            bands = [fused.backend.guard_band(tile, temp)
                     for tile in fused._programmed.values()]
            assert all(band.table is None for band in bands)
            uncertified[temp] = sum(band.n_uncertified for band in bands)
        assert uncertified[27.0] == 0
        assert uncertified[85.0]


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
        """Off the exact gate (2 bits at 85 degC, retention 0.8) every
        tile still gets a band, but no entry whose digit sum holds a
        reachable misdecoding triple is certified."""
        for bits_per_cell, temp, retention in ((2, 85.0, None),
                                               (1, 27.0, 0.8),
                                               (2, 27.0, 0.8)):
            fused, _ = twins(build_model(), tile_rows=16, tile_cols=3,
                             sigma_vth_fefet=54e-3,
                             bits_per_cell=bits_per_cell)
            assert not fused.backend.exact_decode(temp, retention)
            misread = misdecoding_digit_sums(fused, temp, retention)
            assert misread
            at_misread = 0
            for tile in fused._programmed.values():
                band = fused.backend.guard_band(tile, temp, retention)
                hit = np.isin(tile.w_counts, misread)
                assert not band.certified[hit].any()
                at_misread += int(hit.sum())
            assert at_misread
            assert 0.0 < certified_share(fused, temp, retention) < 1.0

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
