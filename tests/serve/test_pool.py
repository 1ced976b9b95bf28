"""Tests for the sharded ChipPool: equivalence, scheduling, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.compiler.chip import replica_variation_seed
from repro.nn import Dense, ReLU, Sequential
from repro.serve import ChipPool, PoolStats


def build_program(sigma=0.0, seed=0):
    rng = np.random.default_rng(0)
    model = Sequential([Dense(24, 12, rng=rng), ReLU(),
                        Dense(12, 5, rng=rng)])
    design = TwoTOneFeFETCell()
    mapping = MappingConfig(tile_rows=8, tile_cols=4,
                            sigma_vth_fefet=sigma, seed=seed)
    return compile_model(model, design, mapping), design


@pytest.fixture(scope="module")
def nominal():
    return build_program()


@pytest.fixture(scope="module")
def varied():
    return build_program(sigma=54e-3, seed=3)


def requests(n, rng_seed=1, images=1):
    rng = np.random.default_rng(rng_seed)
    return [rng.normal(size=(images, 24)) for _ in range(n)]


class TestSessionEquivalence:
    """The acceptance gate: a 1-replica pool (an ``InferenceSession``)
    serves every request exactly its own forward pass on a fresh
    ``Chip(program, design)``."""

    def forward_logits(self, program, design, xs, temps):
        chip = Chip(program, design)
        return [chip.forward(x, temp_c=t) for x, t in zip(xs, temps)]

    @pytest.mark.parametrize("autostart", [False, True])
    def test_single_replica_bit_identical(self, varied, autostart):
        """Variation enabled, mixed temps and ragged request sizes — the
        pool still serves exactly the per-request logits."""
        program, design = varied
        xs = requests(6) + requests(2, rng_seed=9, images=3)
        temps = [85.0, 27.0, 85.0, None, 0.0, 27.0, None, 85.0]
        expected = self.forward_logits(program, design, xs, temps)
        with ChipPool(program, design, n_replicas=1, max_batch_size=4,
                      autostart=autostart) as pool:
            tickets = [pool.submit(x, temp_c=t)
                       for x, t in zip(xs, temps)]
            if not autostart:
                while pool.step():
                    pass
            got = [t.result(timeout=10.0).logits for t in tickets]
        for a, b in zip(expected, got):
            assert np.array_equal(a, b)

    def test_nominal_fleet_bit_identical(self, nominal):
        """Zero-sigma replicas redraw to identical tiles, so any replica
        serves the per-request logits exactly."""
        program, design = nominal
        xs = requests(8)
        expected = self.forward_logits(program, design, xs, [None] * 8)
        with ChipPool(program, design, n_replicas=3,
                      max_batch_size=4) as pool:
            got = [pool.submit(x).result(timeout=10.0).logits for x in xs]
        for a, b in zip(expected, got):
            assert np.array_equal(a, b)


class TestReplicaConstruction:
    def test_replicas_are_independent_variation_draws(self, varied):
        program, design = varied
        chips = Chip.build_replicas(program, design, 3)
        x = requests(1)[0]
        logits = [chip.forward(x) for chip in chips]
        # Replica 0 is the program's own draw.
        assert np.array_equal(logits[0], Chip(program, design).forward(x))
        # Later replicas differ from it and from each other.
        assert not np.array_equal(logits[0], logits[1])
        assert not np.array_equal(logits[1], logits[2])

    def test_replica_draws_deterministic(self, varied):
        program, design = varied
        x = requests(1)[0]
        a = Chip.build_replicas(program, design, 2)[1].forward(x)
        b = Chip.build_replicas(program, design, 2)[1].forward(x)
        assert np.array_equal(a, b)

    def test_replicas_share_unit_but_not_meters(self, varied):
        program, design = varied
        chips = Chip.build_replicas(program, design, 2)
        assert chips[0].unit is chips[1].unit
        assert chips[0].meter is not chips[1].meter

    def test_replicas_share_plane_decomposition(self, varied):
        """Later replicas reuse replica 0's bit-plane decomposition and
        only redraw the per-cell variation (no re-programming)."""
        program, design = varied
        chips = Chip.build_replicas(program, design, 2)
        key = next(iter(chips[0]._programmed))
        a, b = chips[0]._programmed[key], chips[1]._programmed[key]
        assert a.w_planes is b.w_planes       # shared decomposition
        assert not np.array_equal(a.w_dv, b.w_dv)   # distinct draws

    def test_replica_seed_rejects_replica_zero(self):
        with pytest.raises(ValueError, match="replica 0"):
            replica_variation_seed(0, 0)

    def test_rejects_empty_pool(self, nominal):
        program, design = nominal
        with pytest.raises(ValueError, match="at least one replica"):
            Chip.build_replicas(program, design, 0)
        with pytest.raises(ValueError, match="at least one replica"):
            ChipPool(program, design, n_replicas=2, chips=[])

    def test_rejects_foreign_chips(self, nominal, varied):
        """Prebuilt replicas must come from the pool's own program —
        routing, default temp, and telemetry all read its mapping."""
        program, design = nominal
        other_program, _ = varied
        foreign = Chip(other_program, design)
        with pytest.raises(ValueError, match="own CompiledProgram"):
            ChipPool(program, design, chips=[foreign], autostart=False)


class TestScheduling:
    def test_dispatch_balances_load(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2, max_batch_size=2,
                      autostart=False) as pool:
            tickets = [pool.submit(x) for x in requests(8)]
            while pool.step():
                pass
            [t.result(timeout=10.0) for t in tickets]
            stats = pool.stats()
        images = [r["images"] for r in stats.replicas]
        assert sum(images) == 8
        assert images[0] == images[1] == 4

    def test_pinned_requests_never_stolen(self, nominal):
        """``submit_to`` pins are honored by work stealing: an idle peer
        leaves pinned probes alone — replicas are distinct variation
        draws, so a stolen probe would answer with the wrong die."""
        program, design = nominal
        with ChipPool(program, design, n_replicas=2, max_batch_size=64,
                      linger_s=0.05) as pool:
            tickets = [pool.submit_to(0, x) for x in requests(6)]
            results = [t.result(timeout=10.0) for t in tickets]
            stats = pool.stats()
        served_by = {r.telemetry.replica for r in results}
        assert served_by == {0}         # every probe on its pinned die
        assert stats.totals["steals"] == 0

    def test_temp_binning_routes_by_temperature(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2, temp_bins=(40.0,),
                      max_batch_size=8, autostart=False) as pool:
            assert pool.bin_for(0.0) == 0 and pool.bin_for(85.0) == 1
            cold = [pool.submit(x, temp_c=0.0) for x in requests(3)]
            hot = [pool.submit(x, temp_c=85.0) for x in requests(3)]
            while pool.step():
                pass
            cold_by = {t.result(timeout=10.0).telemetry.replica
                       for t in cold}
            hot_by = {t.result(timeout=10.0).telemetry.replica
                      for t in hot}
        assert cold_by == {0} and hot_by == {1}

    def test_idle_bin_steals_cross_bin(self, nominal):
        """Binning is locality, not utilization: a replica whose bin has
        no traffic steals from the loaded bin instead of idling."""
        program, design = nominal
        chips = Chip.build_replicas(program, design, 2)
        # Replica 0 holds its first batch (which carries the pinned
        # request) until the steal lands, so the outcome does not hinge
        # on which scheduler thread wakes first.
        release = threading.Event()
        forward = chips[0].forward

        def held_forward(*args, **kwargs):
            release.wait(timeout=10.0)
            return forward(*args, **kwargs)

        chips[0].forward = held_forward
        with ChipPool(program, design, chips=chips, temp_bins=(40.0,),
                      max_batch_size=2, linger_s=0.2) as pool:
            # Everything cold -> bin 0 -> replica 0; replica 1's hot bin
            # is empty, so it must cross-bin steal.
            xs = requests(8)
            try:
                tickets = [pool.submit_to(0, xs[0], temp_c=0.0)]
                tickets += [pool.submit(x, temp_c=0.0) for x in xs[1:]]
                deadline = time.monotonic() + 10.0
                while (pool.stats().totals["steals"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
            finally:
                release.set()
            results = [t.result(timeout=10.0) for t in tickets]
            stats = pool.stats()
        assert {r.telemetry.replica for r in results} == {0, 1}
        assert stats.totals["steals"] >= 1

    def test_thieves_rob_only_busy_or_retiring_peers(self, nominal):
        """An idle live replica serves its own queue after its linger;
        a thief takes only work queued behind a busy or retiring peer.
        (Robbing an idle owner would let whichever thread holds the GIL
        pile a whole burst onto one replica.)"""
        program, design = nominal
        with ChipPool(program, design, n_replicas=2, max_batch_size=4,
                      autostart=False) as pool:
            ticket = pool.submit(requests(1)[0])
            owner = next(w for w in pool.workers if w.queue)
            thief = next(w for w in pool.workers if w is not owner)
            with pool._cond:
                assert pool._steal_available(thief) is False
                assert pool._steal_batch_locked(thief) == []
                owner.in_flight = 1
                assert pool._steal_available(thief) is True
                owner.in_flight = 0
                for flag in ("draining", "maintaining"):
                    setattr(owner, flag, True)
                    assert pool._steal_available(thief) is True
                    setattr(owner, flag, False)
                owner.in_flight = 1
                stolen = pool._steal_batch_locked(thief)
                owner.in_flight = 0
            assert [p.ticket for p in stolen] == [ticket]
            assert not owner.queue
            thief.queue.requeue(stolen)
            pool._pump(ticket)
            assert ticket.result(timeout=10.0).telemetry.replica == \
                thief.index

    def test_busy_owner_wakes_parked_thieves(self, nominal):
        """An owner that starts a batch with work still queued behind it
        wakes its parked peers, which steal that work at once rather than
        when the owner's batch ends."""
        program, design = nominal
        chips = Chip.build_replicas(program, design, 2)
        release = threading.Event()
        forward = chips[0].forward

        def held_forward(*args, **kwargs):
            release.wait(timeout=10.0)
            return forward(*args, **kwargs)

        chips[0].forward = held_forward
        with ChipPool(program, design, chips=chips, temp_bins=(40.0,),
                      max_batch_size=4, linger_s=0.05) as pool:
            xs = requests(2)
            try:
                # Both route to replica 0 (bin 0) but cannot share a
                # batch, so its first batch leaves the 10 C request
                # queued; no later submit wakes replica 1.
                tickets = [pool.submit(xs[0], temp_c=0.0),
                           pool.submit(xs[1], temp_c=10.0)]
                deadline = time.monotonic() + 10.0
                while (pool.stats().totals["steals"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
                steals = pool.stats().totals["steals"]
            finally:
                release.set()
            results = [t.result(timeout=10.0) for t in tickets]
        assert steals == 1
        assert [r.telemetry.replica for r in results] == [0, 1]

    def test_binning_needs_enough_replicas(self, nominal):
        program, design = nominal
        with pytest.raises(ValueError, match="bins need at least"):
            ChipPool(program, design, n_replicas=2,
                     temp_bins=(20.0, 60.0), autostart=False)

    def test_binned_traffic_falls_back_when_bin_drained(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2, temp_bins=(40.0,),
                      max_batch_size=8, autostart=False) as pool:
            pool.drain(1)               # the hot bin's only replica
            ticket = pool.submit(requests(1)[0], temp_c=85.0)
            while pool.step():
                pass
            assert ticket.result(timeout=10.0).telemetry.replica == 0

    def test_ragged_final_micro_batch(self, nominal):
        """7 single-image requests through a 4-image budget on one
        replica: batches of 4 then 3, nobody stranded."""
        program, design = nominal
        with ChipPool(program, design, n_replicas=1, max_batch_size=4,
                      autostart=False) as pool:
            tickets = [pool.submit(x) for x in requests(7)]
            assert pool.step() == 4
            assert pool.step() == 3
            assert pool.step() == 0
            sizes = {t.result(timeout=10.0).telemetry.batch_images
                     for t in tickets}
        assert sizes == {4, 3}

    def test_mixed_dtype_temps_coalesce(self, nominal):
        """Regression: np.float32 / np.float64 / int / float spellings of
        one temperature must land in one micro-batch."""
        program, design = nominal
        with ChipPool(program, design, n_replicas=1, max_batch_size=8,
                      autostart=False) as pool:
            temps = [np.float32(85.0), np.float64(85.0), 85, 85.0]
            tickets = [pool.submit(x, temp_c=t)
                       for x, t in zip(requests(4), temps)]
            assert pool.step() == 4
            for ticket in tickets:
                telemetry = ticket.result(timeout=10.0).telemetry
                assert telemetry.batch_images == 4
                assert isinstance(telemetry.temp_c, float)


class TestLifecycle:
    def test_rejects_empty_request(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=1,
                      autostart=False) as pool:
            with pytest.raises(ValueError, match="at least one image"):
                pool.submit(np.empty((0, 24)))

    def test_close_serves_queued_tickets(self, nominal):
        """Shutdown with a loaded queue: every ticket still resolves."""
        program, design = nominal
        pool = ChipPool(program, design, n_replicas=2, max_batch_size=4,
                        autostart=False)
        tickets = [pool.submit(x) for x in requests(5)]
        pool.close()
        assert all(t.result(timeout=10.0).logits is not None
                   for t in tickets)

    def test_threaded_close_serves_queued_tickets(self, nominal):
        program, design = nominal
        pool = ChipPool(program, design, n_replicas=2, max_batch_size=4,
                        linger_s=0.2)
        tickets = [pool.submit(x) for x in requests(5)]
        pool.close()                    # drains before joining
        assert all(t.done() for t in tickets)
        assert all(t.result(timeout=1.0).logits is not None
                   for t in tickets)

    @pytest.mark.parametrize("autostart", [False, True],
                             ids=["sync", "threads"])
    def test_unstackable_batch_fails_its_tickets_not_its_replica(
            self, nominal, autostart):
        """Requests of 24 and 20 features coalesce into one batch that
        cannot be stacked: both tickets fail with the ValueError, the
        replica keeps serving, and a later request is served."""
        program, design = nominal
        later = requests(1, images=2)[0]
        # Two queued images end the linger, so a threaded replica
        # coalesces both bad requests into one batch too.
        with ChipPool(program, design, n_replicas=1, max_batch_size=2,
                      linger_s=5.0, autostart=autostart) as pool:
            tickets = [pool.submit(np.ones((1, 24))),
                       pool.submit(np.ones((1, 20)))]
            if not autostart:
                pool.step()
            for ticket in tickets:
                with pytest.raises(ValueError):
                    ticket.result(timeout=10.0)
            served = pool.submit(later)
            if not autostart:
                pool.step()
            logits = served.result(timeout=10.0).logits
            assert pool.stats().totals["requests"] == 1
            if autostart:
                assert pool.workers[0].thread.is_alive()
        assert np.array_equal(logits, pool.chips[0].forward(later))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("mode", ["sync", "threads", "processes"])
    def test_failed_batch_counts_its_requests(self, nominal, mode):
        """A NaN request co-batched with a good one fails the batch; the
        replica and fleet totals count both requests and the batch as
        failed, and none of them as served."""
        program, design = nominal
        good, poisoned = requests(2)
        poisoned = poisoned.copy()
        poisoned[0, 3] = np.nan
        substrate = ({"autostart": False} if mode == "sync"
                     else {"workers": mode})
        with ChipPool(program, design, n_replicas=1, max_batch_size=2,
                      linger_s=5.0, **substrate) as pool:
            tickets = [pool.submit(good), pool.submit(poisoned)]
            if mode == "sync":
                pool.step()
            for ticket in tickets:
                with pytest.raises(ValueError):
                    ticket.result(timeout=30.0)
            stats = pool.stats()
            served = pool.submit(good)
            if mode == "sync":
                pool.step()
            served.result(timeout=30.0)
            after = pool.stats()
        for view in (stats.totals, stats.replicas[0]):
            assert view["failed_requests"] == 2
            assert view["failed_batches"] == 1
            assert view["requests"] == view["batches"] == 0
        assert after.totals["failed_requests"] == 2
        assert after.totals["failed_batches"] == 1
        assert after.totals["requests"] == after.totals["batches"] == 1

    def test_submit_after_close_rejected(self, nominal):
        program, design = nominal
        pool = ChipPool(program, design, n_replicas=1, autostart=False)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(requests(1)[0])

    def test_close_idempotent(self, nominal):
        program, design = nominal
        pool = ChipPool(program, design, n_replicas=2)
        pool.close()
        pool.close()

    def test_drain_retires_replica(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2,
                      max_batch_size=4) as pool:
            pool.drain(0, wait=True)
            results = [pool.submit(x).result(timeout=10.0)
                       for x in requests(4)]
            stats = pool.stats()
        assert {r.telemetry.replica for r in results} == {1}
        assert stats.replicas[0]["stopped"] is True

    def test_drain_all_then_submit_raises(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2,
                      autostart=False) as pool:
            pool.drain(0)
            pool.drain(1)
            with pytest.raises(RuntimeError, match="drained"):
                pool.submit(requests(1)[0])

    def test_concurrent_stats_during_serving(self, nominal):
        """stats() from reader threads while the fleet serves: no
        tearing, no exception, and final totals are exact."""
        program, design = nominal
        errors = []
        stop = threading.Event()

        def reader(pool):
            try:
                while not stop.is_set():
                    stats = pool.stats()
                    assert isinstance(stats, PoolStats)
                    assert stats.totals["requests"] >= 0
            except Exception as error:      # pragma: no cover
                errors.append(error)

        with ChipPool(program, design, n_replicas=2,
                      max_batch_size=4) as pool:
            threads = [threading.Thread(target=reader, args=(pool,))
                       for _ in range(2)]
            for t in threads:
                t.start()
            tickets = [pool.submit(x) for x in requests(20, rng_seed=7)]
            [t.result(timeout=30.0) for t in tickets]
            stop.set()
            for t in threads:
                t.join()
            final = pool.stats()
        assert not errors
        assert final.totals["requests"] == 20
        assert final.totals["images"] == 20


class TestFleetTelemetry:
    def test_poolstats_modeled_view(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2, max_batch_size=4,
                      autostart=False) as pool:
            tickets = [pool.submit(x) for x in requests(8)]
            while pool.step():
                pass
            [t.result(timeout=10.0) for t in tickets]
            stats = pool.stats()
        modeled = stats.modeled
        serial = sum(r["latency_s"] for r in stats.replicas)
        makespan = max(r["latency_s"] for r in stats.replicas)
        assert modeled["serial_latency_s"] == pytest.approx(serial)
        assert modeled["makespan_s"] == pytest.approx(makespan)
        assert modeled["parallel_speedup"] == pytest.approx(
            serial / makespan)
        # Balanced two-replica fleet: the hardware serves ~2x the images
        # per modeled second of a single chip.
        assert modeled["parallel_speedup"] == pytest.approx(2.0, rel=0.2)
        doc = stats.as_dict()
        assert doc["totals"]["images"] == 8

    def test_tops_per_watt_uses_mapping_row_width(self, nominal):
        from repro.metrics.efficiency import tops_per_watt

        program, design = nominal
        with ChipPool(program, design, n_replicas=1,
                      autostart=False) as pool:
            stats = pool.stats()
        meter = pool.workers[0].chip.meter
        assert stats.modeled["tops_per_watt"] == pytest.approx(
            tops_per_watt(meter.energy_per_mac_j,
                          program.mapping.cells_per_row))

    def test_divergence_zero_on_nominal_fleet(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=3,
                      autostart=False) as pool:
            probe = pool.divergence(requests(1)[0])
        assert probe["max_deviation"] == 0.0
        assert probe["min_agreement"] == 1.0

    def test_divergence_nonzero_under_variation(self, varied):
        program, design = varied
        with ChipPool(program, design, n_replicas=3,
                      autostart=False) as pool:
            probe = pool.divergence(requests(1, images=4)[0])
        assert probe["deviation"][0] == 0.0      # reference replica
        assert probe["max_deviation"] > 0.0
        assert probe["replicas"] == [0, 1, 2]

    def test_telemetry_reports_serving_replica(self, nominal):
        program, design = nominal
        with ChipPool(program, design, n_replicas=2,
                      autostart=False) as pool:
            ticket = pool.submit_to(1, requests(1)[0])
            while pool.step():
                pass
            assert ticket.result(timeout=10.0).telemetry.replica == 1


class TestPoolBenchmark:
    def test_smoke_doc_shape_and_gates(self):
        from repro.serve import pool_benchmark, report_pool_benchmark

        doc = pool_benchmark(
            n_requests=4, images_per_request=1, n_replicas=2,
            max_batch_size=4, width=2, image_size=8,
            mapping=MappingConfig(tile_rows=16, tile_cols=8))
        assert doc["single_replica_bit_identical"] is True
        assert doc["fleet_bit_identical_nominal"] is True
        assert doc["workload"]["n_replicas"] == 2
        assert doc["modeled_throughput_speedup"] >= 1.5
        assert doc["divergence"]["max_deviation"] == 0.0
        assert report_pool_benchmark(doc, min_modeled_speedup=1.5) == 0
        assert report_pool_benchmark(doc, min_modeled_speedup=1e9) == 1
