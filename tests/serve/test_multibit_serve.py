"""Multibit programs through the serving stack.

Sessions and pools must serve a ``bits_per_cell > 1`` program unchanged
— same logits as a direct ``chip.forward`` — and a ``bits_per_cell=1``
program must stay bit-identical to the default mapping through every
serving substrate (session, threaded pool, process pool).  Both pool
substrates must also meter the same modeled energy."""

import numpy as np
import pytest

from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.nn import Dense, ReLU, Sequential
from repro.serve import ChipPool, InferenceSession

DESIGN = TwoTOneFeFETCell()


def build_program(**mapping_kwargs):
    rng = np.random.default_rng(0)
    model = Sequential([Dense(24, 12, rng=rng), ReLU(),
                        Dense(12, 5, rng=rng)])
    mapping = MappingConfig(tile_rows=8, tile_cols=4, **mapping_kwargs)
    return compile_model(model, DESIGN, mapping)


def requests(n, rng_seed=1, images=1):
    rng = np.random.default_rng(rng_seed)
    return [rng.normal(size=(images, 24)) for _ in range(n)]


class TestSession:
    @pytest.mark.parametrize("b", [2, 3])
    def test_session_matches_direct_forward(self, b):
        chip = Chip(build_program(bits_per_cell=b), DESIGN)
        xs = requests(5)
        with InferenceSession(chip, max_batch_size=4) as session:
            tickets = [session.submit(x) for x in xs]
            for ticket, x in zip(tickets, xs):
                assert np.array_equal(ticket.result(timeout=30.0).logits,
                                      chip.forward(x))

    def test_1bit_session_identical_to_default(self):
        xs = requests(4)
        outs = {}
        for key, program in (("default", build_program()),
                             ("explicit", build_program(bits_per_cell=1))):
            chip = Chip(program, DESIGN)
            with InferenceSession(chip, max_batch_size=4) as session:
                outs[key] = [session.infer(x).logits for x in xs]
        for a, b in zip(outs["default"], outs["explicit"]):
            assert np.array_equal(a, b)


class TestPools:
    @pytest.mark.parametrize("workers", ["threads", "processes"])
    def test_multibit_pool_matches_forward(self, workers):
        """At the default 27 degC a fresh 2-bit chip serves every layer as
        the exact GEMM; at 85 degC its decode misreads, so both
        substrates run the multibit pattern decode."""
        program = build_program(bits_per_cell=2)
        chip = Chip(program, DESIGN)
        xs = requests(6)
        with ChipPool(program, DESIGN, n_replicas=2, max_batch_size=4,
                      workers=workers) as pool:
            for temp_c in (None, 85.0):
                got = [pool.submit(x, temp_c=temp_c).result(timeout=30.0)
                       .logits for x in xs]
                for x, logits in zip(xs, got):
                    assert np.array_equal(logits,
                                          chip.forward(x, temp_c=temp_c))
        assert chip.backend.exact_decode(27.0)
        assert not chip.backend.exact_decode(85.0)

    @pytest.mark.parametrize("workers", ["threads", "processes"])
    def test_1bit_pool_identical_to_default(self, workers):
        """The bit-identity guarantee survives both worker substrates —
        including the shared-memory program transport for processes."""
        xs = requests(4)
        outs = {}
        for key, program in (("default", build_program()),
                             ("explicit", build_program(bits_per_cell=1))):
            with ChipPool(program, DESIGN, n_replicas=2, max_batch_size=4,
                          workers=workers) as pool:
                outs[key] = [pool.submit(x).result(timeout=30.0).logits
                             for x in xs]
        for a, b in zip(outs["default"], outs["explicit"]):
            assert np.array_equal(a, b)

    def test_multibit_variation_pool_replicas_differ_but_are_frozen(self):
        """Replica variation draws work at multibit precision: pinned
        probes to the same replica repeat exactly."""
        program = build_program(bits_per_cell=2, sigma_vth_fefet=54e-3,
                                seed=4)
        x = requests(1)[0]
        with ChipPool(program, DESIGN, n_replicas=2, max_batch_size=4,
                      workers="threads") as pool:
            per_replica = [
                pool.submit_to(i, x).result(timeout=30.0).logits
                for i in range(pool.n_replicas)]
            again = [pool.submit_to(i, x).result(timeout=30.0).logits
                     for i in range(pool.n_replicas)]
        for a, b in zip(per_replica, again):
            assert np.array_equal(a, b)
        assert not np.array_equal(per_replica[0], per_replica[1])

    @pytest.mark.parametrize("b", [
        1,
        pytest.param(2, marks=pytest.mark.xfail(strict=True, reason=(
            "shm.publish_fleet boots a process replica with a binary-row "
            "TableMacEstimator (the parent meter's energy_per_mac_j, "
            "cells_per_row and latency), so the worker prices a 2-bit "
            "row op at one binary-row energy instead of two"))),
    ])
    def test_modeled_energy_matches_across_substrates(self, b):
        """A replica meters the same modeled energy whether it runs on a
        scheduler thread or in a worker process."""
        program = build_program(bits_per_cell=b)
        energy = {}
        for workers in ("threads", "processes"):
            with ChipPool(program, DESIGN, n_replicas=2, max_batch_size=4,
                          autostart=False, workers=workers) as pool:
                tickets = [pool.submit(x, temp_c=27.0) for x in requests(4)]
                while pool.step():
                    pass
                energy[workers] = sum(t.result(timeout=30.0).telemetry.energy_j
                                      for t in tickets)
        assert energy["threads"] > 0
        assert energy["processes"] == pytest.approx(energy["threads"])
