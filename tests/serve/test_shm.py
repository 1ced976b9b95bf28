"""Tests for shared-memory program publication (serve/shm.py):
arena layout, lifecycle hygiene, and zero-copy replica bootstrap."""

import os
import pickle
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.nn import Dense, ReLU, Sequential
from repro.serve import shm


def build_chip(sigma=0.0, seed=0):
    rng = np.random.default_rng(0)
    model = Sequential([Dense(24, 12, rng=rng), ReLU(),
                        Dense(12, 5, rng=rng)])
    design = TwoTOneFeFETCell()
    mapping = MappingConfig(tile_rows=8, tile_cols=4,
                            sigma_vth_fefet=sigma, seed=seed)
    program = compile_model(model, design, mapping)
    return Chip(program, design), program, design


class TestPublishAttach:
    def test_round_trip_values_and_layout(self):
        arrays = {
            "a": np.arange(12.0).reshape(3, 4),
            "b": np.arange(5, dtype=np.int32),
            "c": np.array([], dtype=np.float64),
        }
        handle = shm.publish(arrays)
        try:
            assert handle.name in shm.active_segments()
            mapped, segment = shm.attach(handle)
            try:
                assert set(mapped) == set(arrays)
                for key, arr in arrays.items():
                    assert np.array_equal(mapped[key], arr)
                    assert mapped[key].dtype == arr.dtype
                # 64-byte alignment of every stored array.
                for entry in handle.entries:
                    assert entry.offset % 64 == 0
            finally:
                segment.close()
        finally:
            shm.release(handle.name)

    def test_views_are_read_only(self):
        handle = shm.publish({"a": np.ones(4)})
        try:
            mapped, segment = shm.attach(handle)
            try:
                with pytest.raises(ValueError):
                    mapped["a"][0] = 2.0
            finally:
                segment.close()
        finally:
            shm.release(handle.name)

    def test_identity_dedupe_stores_shared_arrays_once(self):
        a = np.arange(1024.0)
        handle = shm.publish({"x": a, "y": a, "z": np.ones(8)})
        try:
            entries = {e.key: e for e in handle.entries}
            assert entries["x"].offset == entries["y"].offset
            # The arena holds one copy of `a` plus `z`, not two of `a`.
            assert handle.size < 2 * a.nbytes
            mapped, segment = shm.attach(handle)
            try:
                assert np.array_equal(mapped["x"], a)
                assert np.array_equal(mapped["y"], a)
            finally:
                segment.close()
        finally:
            shm.release(handle.name)


class TestLifecycle:
    def test_release_unlinks_and_drains_registry(self):
        handle = shm.publish({"a": np.ones(4)})
        assert handle.name in shm.active_segments()
        shm.release(handle.name)
        assert handle.name not in shm.active_segments()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)
        shm.release(handle.name)   # idempotent

    def test_atexit_sweep_cleans_up_parent_exit(self, tmp_path):
        """A parent exiting without release() must not strand segments."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = textwrap.dedent("""
            import numpy as np
            from repro.serve import shm
            handle = shm.publish({"a": np.arange(64.0)})
            print(handle.name)
            # exit *without* release: the atexit sweep must unlink
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True)
        name = proc.stdout.strip()
        assert name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestFleetPublication:
    def test_bootstrap_chip_is_bit_identical(self):
        chip, program, design = build_chip(sigma=54e-3, seed=3)
        x = np.random.default_rng(1).normal(size=(2, 24))
        expected = chip.forward(x)
        handle, boots = shm.publish_fleet([chip])
        try:
            rebuilt, segment = shm.bootstrap_chip(boots[0])
            try:
                assert np.array_equal(rebuilt.forward(x), expected)
            finally:
                segment.close()
        finally:
            shm.release(handle.name)

    def test_boot_pickles_and_keeps_meter_pricing(self):
        """A boot crosses a spawn boundary (pickle) and boots a chip
        whose meter prices like the parent's."""
        from repro.array.timing import LatencySpec
        from repro.tune.estimators import TableMacEstimator

        _, program, design = build_chip()
        chip = Chip(program, design, estimator=TableMacEstimator(
            2.5e-15, latency=LatencySpec(t_decode_s=0.3e-9)))
        handle, boots = shm.publish_fleet([chip])
        try:
            rebuilt, segment = shm.bootstrap_chip(
                pickle.loads(pickle.dumps(boots[0])))
            try:
                assert rebuilt.meter.latency == chip.meter.latency
                assert rebuilt.meter.snapshot() == chip.meter.snapshot()
            finally:
                segment.close()
        finally:
            shm.release(handle.name)

    def test_replicas_share_planes_but_not_variation(self):
        chip, program, design = build_chip(sigma=54e-3, seed=3)
        replicas = Chip.build_replicas(program, design, 2)
        handle, boots = shm.publish_fleet(replicas)
        try:
            entries = {e.key: e for e in handle.entries}
            planes = [k for k in entries if k.endswith(".planes")]
            assert planes
            # The plane decomposition is weight-determined and shared by
            # object identity across replicas -> one stored copy.
            for key in planes:
                if key.startswith("g0.r0."):
                    peer = key.replace("g0.r0.", "g0.r1.", 1)
                    assert entries[key].offset == entries[peer].offset
            # The variation draws are per-replica -> distinct storage.
            dv = [k for k in entries if k.endswith(".dv")
                  and k.startswith("g0.r0.")]
            assert dv
            for key in dv:
                peer = key.replace("g0.r0.", "g0.r1.", 1)
                assert entries[key].offset != entries[peer].offset
        finally:
            shm.release(handle.name)

    def test_spawn_replica_workers_serves_and_shuts_down(self):
        from repro.serve.batching import BatchWork

        chip, program, design = build_chip()
        x = np.random.default_rng(1).normal(size=(1, 24))
        expected = chip.forward(x)
        handle, proxies = shm.spawn_replica_workers([chip])
        try:
            outcome = proxies[0].execute(
                BatchWork(x=x, temp_c=program.mapping.temp_c,
                          segments=(1,)))
            assert np.array_equal(outcome.logits, expected)
            assert outcome.latency_s > 0
        finally:
            for proxy in proxies:
                proxy.shutdown()
            shm.release(handle.name)
        assert not proxies[0].alive
        assert handle.name not in shm.active_segments()
