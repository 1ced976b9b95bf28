"""Tests for the model registry and the multi-program pool.

The acceptance contract: a ``MultiProgramPool`` serving programs A and B
from one scheduler is **bit-identical** to two dedicated single-program
``ChipPool``s — per replica, per request — and work never crosses
program boundaries (a replica is physically programmed with one model's
weights).  Plus the artifact warm paths: ``ChipPool.from_artifact`` /
``InferenceSession.from_artifact`` fleets match cold fleets exactly.
"""

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.nn import Dense, ReLU, Sequential
from repro.serve import (
    ChipPool,
    InferenceSession,
    MultiProgramPool,
    PoolStats,
    ProgramRegistry,
)

MAPPING = MappingConfig(tile_rows=8, tile_cols=4, sigma_vth_fefet=54e-3,
                        sigma_vth_mosfet=15e-3, seed=3)


@pytest.fixture(scope="module")
def programs():
    """Two distinct programs sharing one calibrated MAC unit.

    Both use the same mapping (bits/sigma/seed/backend), so the second
    chip legitimately adopts the first's unit — bring-up cost is paid
    once for the whole module.
    """
    design = TwoTOneFeFETCell()
    rng = np.random.default_rng(0)
    model_a = Sequential([Dense(24, 12, rng=rng), ReLU(),
                          Dense(12, 5, rng=rng)])
    model_b = Sequential([Dense(24, 16, rng=rng), ReLU(),
                          Dense(16, 3, rng=rng)])
    prog_a = compile_model(model_a, design, MAPPING)
    prog_b = compile_model(model_b, design, MAPPING)
    chip_a = Chip(prog_a, design)
    chip_b = Chip(prog_b, design, unit=chip_a.unit)
    return {"design": design, "prog_a": prog_a, "prog_b": prog_b,
            "chip_a": chip_a, "chip_b": chip_b,
            "model_a": model_a, "model_b": model_b}


@pytest.fixture
def registry(programs):
    reg = ProgramRegistry()
    reg.register_chip("a", programs["chip_a"])
    reg.register_chip("b", programs["chip_b"])
    return reg


def requests(n, rng_seed=1):
    rng = np.random.default_rng(rng_seed)
    return [rng.normal(size=(2, 24)) for _ in range(n)]


class TestProgramRegistry:
    def test_register_and_get(self, registry, programs):
        assert registry.names() == ("a", "b")
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert registry.get("a").program is programs["prog_a"]

    def test_unknown_name_raises(self, registry):
        with pytest.raises(KeyError, match="no program 'c'"):
            registry.get("c")

    def test_duplicate_name_rejected(self, registry, programs):
        with pytest.raises(ValueError, match="already registered"):
            registry.register_chip("a", programs["chip_b"])

    def test_empty_name_rejected(self, registry, programs):
        with pytest.raises(ValueError):
            registry.register_chip("", programs["chip_a"])

    def test_describe(self, registry):
        docs = registry.describe()
        assert [d["name"] for d in docs] == ["a", "b"]
        assert all(d["source"] == "compile" and d["warm"]
                   for d in docs)

    def test_register_model_compiles(self, programs):
        reg = ProgramRegistry()
        entry = reg.register_model("m", programs["model_a"],
                                   programs["design"], MAPPING)
        assert entry.source == "compile"
        assert entry.program.fingerprint == \
            programs["prog_a"].fingerprint

    def test_register_model_hits_artifact_store(self, tmp_path,
                                                programs):
        store = ArtifactStore(tmp_path / "arts")
        store.save(programs["chip_a"])
        reg = ProgramRegistry(store)
        entry = reg.register_model("m", programs["model_a"],
                                   programs["design"], MAPPING)
        assert entry.source == "artifact"
        x = requests(1)[0]
        np.testing.assert_array_equal(
            entry.warm_chip().forward(x),
            programs["chip_a"].forward(x))

    def test_register_artifact(self, tmp_path, programs):
        store = ArtifactStore(tmp_path / "arts")
        store.save(programs["chip_a"])
        reg = ProgramRegistry(store)
        entry = reg.register_artifact(
            "m", programs["prog_a"].fingerprint)
        assert entry.source == "artifact"

    def test_register_artifact_needs_store(self, programs):
        with pytest.raises(ValueError, match="ArtifactStore"):
            ProgramRegistry().register_artifact("m", "0" * 64)

    def test_build_chips_leaves_warm_chip_out_of_fleets(self, registry):
        """Pools own their replicas' meters: the registry's resident
        chip must never be placed in a pool directly."""
        entry = registry.get("a")
        chips = entry.build_chips(2)
        assert len(chips) == 2
        assert all(c is not entry.chip for c in chips)
        assert all(c.unit is entry.chip.unit for c in chips)
        # ... but every replica is priced by the registered chip.
        assert all(c.meter.estimator is entry.chip.meter.estimator
                   for c in chips)


class TestMultiProgramPool:
    def dedicated_logits(self, programs, name, xs):
        prog = programs[f"prog_{name}"]
        chips = Chip.build_replicas(
            prog, programs["design"], 2,
            first=Chip(prog, programs["design"],
                       unit=programs[f"chip_{name}"].unit,
                       programmed=programs[f"chip_{name}"]._programmed))
        with ChipPool(prog, programs["design"], chips=chips,
                      max_batch_size=4, autostart=False) as pool:
            tickets = [pool.submit(x) for x in xs]
            while pool.step():
                pass
            return [t.result(timeout=10.0).logits for t in tickets]

    def test_bit_identical_to_dedicated_pools(self, registry, programs):
        """The consolidation guarantee: one shared scheduler == two
        dedicated pools, exactly, for every request of both programs."""
        xs = requests(6)
        expected_a = self.dedicated_logits(programs, "a", xs)
        expected_b = self.dedicated_logits(programs, "b", xs)
        with MultiProgramPool(registry, replicas=2, max_batch_size=4,
                              autostart=False) as pool:
            tickets_a = [pool.submit("a", x) for x in xs]
            tickets_b = [pool.submit("b", x) for x in xs]
            while pool.step():
                pass
            for ticket, want in zip(tickets_a, expected_a):
                np.testing.assert_array_equal(
                    ticket.result(timeout=10.0).logits, want)
            for ticket, want in zip(tickets_b, expected_b):
                np.testing.assert_array_equal(
                    ticket.result(timeout=10.0).logits, want)

    def test_threaded_serving_matches_replica_chips(self, registry,
                                                    programs):
        """Threaded routing is timing-dependent, so the contract is
        per-replica: whichever replica served a request, the logits are
        exactly that replica die's forward pass."""
        xs = requests(4, rng_seed=5)
        prog, design = programs["prog_a"], programs["design"]
        replica_chips = Chip.build_replicas(
            prog, design, 2,
            first=Chip(prog, design, unit=programs["chip_a"].unit,
                       programmed=programs["chip_a"]._programmed))
        with MultiProgramPool(registry, replicas=2,
                              max_batch_size=4) as pool:
            tickets = [pool.submit("a", x) for x in xs]
            results = [t.result(timeout=30.0) for t in tickets]
        for x, result in zip(xs, results):
            served_by = result.telemetry.replica
            assert served_by in (0, 1)
            np.testing.assert_array_equal(
                result.logits, replica_chips[served_by].forward(x))

    def test_output_shapes_follow_program(self, registry):
        x = requests(1)[0]
        with MultiProgramPool(registry, replicas=1,
                              autostart=False) as pool:
            assert pool.infer("a", x).logits.shape == (2, 5)
            assert pool.infer("b", x).logits.shape == (2, 3)

    def test_unknown_program_rejected(self, registry):
        with MultiProgramPool(registry, replicas=1,
                              autostart=False) as pool:
            with pytest.raises(KeyError, match="not 'c'"):
                pool.submit("c", requests(1)[0])
            with pytest.raises(KeyError):
                pool.stats("c")

    def test_asymmetric_replica_counts(self, registry):
        with MultiProgramPool(registry, replicas={"a": 3, "b": 1},
                              autostart=False) as pool:
            assert pool.replicas_of("a") == (0, 1, 2)
            assert pool.replicas_of("b") == (3,)

    def test_subset_of_registry(self, registry):
        with MultiProgramPool(registry, names=["b"], replicas=1,
                              autostart=False) as pool:
            assert pool.names == ("b",)
            assert pool.infer("b", requests(1)[0]).logits.shape == (2, 3)

    def test_per_program_stats(self, registry):
        xs = requests(4)
        with MultiProgramPool(registry, replicas=1,
                              autostart=False) as pool:
            for x in xs:
                pool.infer("a", x)
            pool.infer("b", xs[0])
            stats = pool.stats()
            assert set(stats) == {"a", "b"}
            assert isinstance(stats["a"], PoolStats)
            assert stats["a"].totals["requests"] == 4
            assert stats["b"].totals["requests"] == 1
            assert pool.stats("a").totals["requests"] == 4
            assert all(r["program"] == "a"
                       for r in stats["a"].replicas)

    def test_stealing_never_crosses_programs(self, registry):
        """A replica of program B must not steal A's queued work even
        when it is the only idle worker — the weights differ."""
        with MultiProgramPool(registry, replicas=1, max_batch_size=4,
                              autostart=False) as pool:
            worker_a, worker_b = pool.workers
            pool.submit("a", requests(1)[0])
            assert pool._steal_batch_locked(worker_b) == []
            assert not pool._steal_available(worker_b)
            # ... while a same-program peer could steal it.
            assert pool._steal_available(worker_a) is False  # own queue
            pool.close()

    def test_divergence_probes_one_program(self, registry):
        x = requests(1)[0]
        with MultiProgramPool(registry, replicas=2,
                              autostart=False) as pool:
            probe = pool.divergence("a", x)
            assert probe["replicas"] == [0, 1]
            assert probe["max_deviation"] >= 0.0

    def test_default_temp_follows_each_program(self, registry,
                                               programs):
        """A request with no temp override serves at its own program's
        mapping temperature."""
        with MultiProgramPool(registry, replicas=1,
                              autostart=False) as pool:
            assert pool._default_temp("a") == MAPPING.temp_c

    def test_mapping_property_refuses(self, registry):
        with MultiProgramPool(registry, replicas=1,
                              autostart=False) as pool:
            with pytest.raises(AttributeError, match="no single mapping"):
                pool.mapping

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiProgramPool(ProgramRegistry(), autostart=False)


class TestArtifactWarmPaths:
    def test_pool_from_artifact_matches_cold_fleet(self, tmp_path,
                                                   programs):
        """Warm fleet == cold fleet, replica by replica: the restored
        chip is replica 0 and later replicas redraw from the same
        replica seeds."""
        store = ArtifactStore(tmp_path / "arts")
        store.save(programs["chip_a"])
        prog, design = programs["prog_a"], programs["design"]
        cold = Chip.build_replicas(
            prog, design, 2,
            first=Chip(prog, design, unit=programs["chip_a"].unit,
                       programmed=programs["chip_a"]._programmed))
        x = requests(1)[0]
        with ChipPool.from_artifact(store, prog.fingerprint,
                                    n_replicas=2, max_batch_size=4,
                                    autostart=False) as pool:
            for index, chip in enumerate(cold):
                ticket = pool.submit_to(index, x)
                pool._pump(ticket)
                np.testing.assert_array_equal(
                    ticket.result(timeout=10.0).logits,
                    chip.forward(x))

    def test_session_from_artifact_bit_identical(self, tmp_path,
                                                 programs):
        store = ArtifactStore(tmp_path / "arts")
        store.save(programs["chip_b"])
        x = requests(1)[0]
        with InferenceSession.from_artifact(
                store, programs["prog_b"].fingerprint,
                autostart=False) as session:
            ticket = session.submit(x)
            while session.step():
                pass
            np.testing.assert_array_equal(
                ticket.result(timeout=10.0).logits,
                programs["chip_b"].forward(x))

    def test_pool_from_artifact_prefix(self, tmp_path, programs):
        store = ArtifactStore(tmp_path / "arts")
        store.save(programs["chip_a"])
        prefix = programs["prog_a"].fingerprint[:12]
        with ChipPool.from_artifact(store, prefix, n_replicas=1,
                                    autostart=False) as pool:
            assert pool.program.fingerprint == \
                programs["prog_a"].fingerprint
