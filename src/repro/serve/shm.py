"""Shared-memory program publication for process replica workers.

The GIL makes threaded :class:`~repro.serve.pool.ChipPool` replicas a
scheduling model, not a speedup — per-batch numpy work is too light to
release the interpreter for long.  ``workers="processes"`` moves each
replica's execution into its own process, and this module supplies the
three pieces that make that cheap and safe:

* **One arena, published once.**  :func:`publish` packs a set of named
  immutable arrays into a single ``multiprocessing.shared_memory``
  segment (64-byte aligned, deduplicated by object identity — fleet
  replicas share one plane decomposition, so the arena stores it once)
  and returns a picklable :class:`ShmHandle`.  :func:`attach` maps the
  segment back into read-only numpy views in any process.
* **Crash-safe lifecycle.**  Segments created here are tracked in a
  module registry and swept by an ``atexit`` hook, so a parent that
  exits without :meth:`ChipPool.close` never strands ``/dev/shm``
  files; the interpreter's ``resource_tracker`` remains the backstop
  for hard kills (SIGKILL skips ``atexit``).  Tests assert
  :func:`active_segments` drains to empty after ``close``/``drain``.
* **Worker bootstrap and proxying.**  :func:`publish_fleet` encodes a
  fleet's chips through the artifact codecs
  (:mod:`repro.artifacts.serialization`) into one arena plus one
  picklable :class:`ReplicaBoot` per replica; :class:`ReplicaProxy`
  forks a worker running :func:`_replica_worker_main`, which rebuilds
  its chip *zero-copy* over the mapped buffers
  (``decode_program(copy=False)`` + :func:`decode_live_planes` + a
  :class:`~repro.compiler.chip.Chip` bound to them) and then serves
  :class:`~repro.serve.batching.BatchWork` frames over a pipe.  Only
  activations travel in and logits/metering deltas travel out.

Start-method notes: workers use
:func:`repro.runtime.executor.default_mp_context` — ``fork`` on Linux
(millisecond start-up, shared resource tracker), the platform default
elsewhere.  Everything crossing the boundary is picklable by
construction, so ``spawn`` is equally correct, just slower to boot
(each worker re-imports numpy and re-maps the arena by name).
Processes must be started **before** the pool's scheduler threads
(forking a multi-threaded parent only clones the forking thread).
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, replace
from multiprocessing import shared_memory

import numpy as np

_ALIGN = 64   # cache-line align every array so views never split loads

#: Segments created (not merely attached) by this process, by name.
_OWNED: dict = {}


@dataclass(frozen=True)
class ShmEntry:
    """Layout of one named array inside a segment."""

    key: str
    dtype: str       # numpy dtype string, endianness included
    shape: tuple
    offset: int


@dataclass(frozen=True)
class ShmHandle:
    """Picklable address of a published arena: segment name + layout.

    Two keys may share an ``offset`` — publication deduplicates arrays
    by object identity, so e.g. every replica's ``planes``/``counts``
    entries point at the one stored decomposition.
    """

    name: str
    size: int
    entries: tuple

    def keys(self):
        return tuple(entry.key for entry in self.entries)


def _sweep():
    """Unlink every segment this process still owns (atexit hook)."""
    for name in list(_OWNED):
        release(name)


atexit.register(_sweep)


def active_segments():
    """Names of segments this process has published and not yet released."""
    return tuple(_OWNED)


def release(name):
    """Close and unlink one owned segment (idempotent)."""
    segment = _OWNED.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
        segment.unlink()
    except FileNotFoundError:
        pass


def publish(arrays, *, _align=_ALIGN) -> ShmHandle:
    """Pack named arrays into one shared-memory segment.

    ``arrays`` maps keys to numpy arrays; arrays referenced under
    several keys (object identity) are stored once.  The segment is
    registered for the owning process's atexit sweep; pair with
    :func:`release` (pools do this in ``close``).
    """
    unique = {}        # id(arr) -> (contiguous array, offset)
    entries = []
    size = 0
    for key, arr in arrays.items():
        marker = id(arr)
        if marker not in unique:
            contiguous = np.ascontiguousarray(arr)
            offset = -size % _align + size
            size = offset + contiguous.nbytes
            unique[marker] = (contiguous, offset)
        contiguous, offset = unique[marker]
        entries.append(ShmEntry(key=key, dtype=contiguous.dtype.str,
                                shape=tuple(contiguous.shape),
                                offset=offset))
    segment = shared_memory.SharedMemory(create=True, size=max(size, 1))
    for contiguous, offset in unique.values():
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype,
                          buffer=segment.buf, offset=offset)
        view[...] = contiguous
    _OWNED[segment.name] = segment
    return ShmHandle(name=segment.name, size=max(size, 1),
                     entries=tuple(entries))


def attach(handle: ShmHandle):
    """Map a published arena; returns ``(arrays, segment)``.

    ``arrays`` are read-only views over the segment buffer — zero
    copies.  The caller must keep ``segment`` referenced for as long as
    the views live and ``close()`` it when done (never ``unlink`` — the
    publisher owns the segment's lifetime).
    """
    segment = shared_memory.SharedMemory(name=handle.name)
    arrays = {}
    for entry in handle.entries:
        view = np.ndarray(entry.shape, dtype=np.dtype(entry.dtype),
                          buffer=segment.buf, offset=entry.offset)
        view.flags.writeable = False
        arrays[entry.key] = view
    return arrays, segment


# ----------------------------------------------------------------------
# fleet publication: chips -> one arena + per-replica boot payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaBoot:
    """Everything one worker process needs to rebuild its replica.

    Picklable by construction (spawn-safe): JSON-style metadata from the
    artifact codecs, the arena handle, the key prefixes scoping this
    replica's arrays, the (small, frozen) design and the estimator that
    prices the worker's meter.
    """

    handle: ShmHandle
    program_meta: dict
    unit_meta: dict
    design: object
    group_prefix: str
    planes_prefix: str
    estimator: object
    #: :class:`~repro.devices.retention.RetentionModel` of the parent
    #: chip's drift clock, or ``None`` for a drift-free fleet.  Only the
    #: (frozen, tiny) model crosses the boundary — the mutable
    #: :class:`~repro.devices.retention.DriftState` itself is
    #: worker-local and reports home in ``BatchOutcome.drift``.
    drift_model: object = None


def publish_fleet(chips):
    """Publish a fleet's program state; returns ``(handle, boots)``.

    Chips are grouped by program object — a
    :class:`~repro.serve.registry.MultiProgramPool` fleet publishes each
    program's weights/planes once no matter how many replicas serve it,
    and replicas of one program share their (weight-determined) plane
    decomposition by identity, so the arena stores it once; only the
    per-replica variation draws add size.
    """
    from repro.artifacts.serialization import (
        encode_live_planes,
        encode_program,
        encode_unit,
    )
    from repro.tune.estimators import TableMacEstimator

    arrays = {}
    groups = {}        # id(program) -> (prefix, program_meta, unit_meta)
    boots = []
    for replica, chip in enumerate(chips):
        marker = id(chip.program)
        if marker not in groups:
            prefix = f"g{len(groups)}."
            program_meta, program_arrays = encode_program(chip.program)
            unit_meta, unit_arrays = encode_unit(chip.unit)
            for key, arr in {**program_arrays, **unit_arrays}.items():
                arrays[prefix + key] = arr
            groups[marker] = (prefix, program_meta, unit_meta)
        prefix, program_meta, unit_meta = groups[marker]
        planes_prefix = f"{prefix}r{replica}."
        arrays.update(encode_live_planes(chip, prefix=planes_prefix))
        meter = chip.meter
        boots.append(ReplicaBoot(
            handle=None, program_meta=program_meta, unit_meta=unit_meta,
            design=chip.design, group_prefix=prefix,
            planes_prefix=planes_prefix,
            estimator=TableMacEstimator(
                meter.energy_per_mac_j, cells_per_row=meter.cells_per_row,
                latency=meter.latency),
            drift_model=(chip.drift.model if chip.drift is not None
                         else None)))
    handle = publish(arrays)
    return handle, [replace(boot, handle=handle) for boot in boots]


def bootstrap_chip(boot: ReplicaBoot):
    """Rebuild one replica chip over mapped buffers; returns
    ``(chip, segment)``.

    Zero-copy end to end: the program binds shared-memory views
    directly (``decode_program(copy=False)``), the programmed tiles are
    rebound plane buffers (:func:`decode_live_planes`), and only the
    tiny calibration table is copied (``decode_unit``).  The caller
    keeps ``segment`` alive for the chip's lifetime.
    """
    from repro.artifacts.serialization import (
        decode_live_planes,
        decode_program,
        decode_unit,
    )
    from repro.compiler.chip import Chip, ChipMeter

    mapped, segment = attach(boot.handle)
    scoped = {key[len(boot.group_prefix):]: view
              for key, view in mapped.items()
              if key.startswith(boot.group_prefix)}
    program = decode_program(boot.program_meta, scoped, copy=False)
    unit = decode_unit(boot.unit_meta, scoped, boot.design)
    programmed = decode_live_planes(program, mapped,
                                    prefix=boot.planes_prefix)
    # meter= skips Chip's bits/cell check; the strict xfail
    # test_modeled_energy_matches_across_substrates[2] pins this pricing.
    chip = Chip(program, boot.design, unit=unit, programmed=programmed,
                meter=ChipMeter(boot.estimator))
    if boot.drift_model is not None:
        chip.enable_drift(model=boot.drift_model)
    return chip, segment


# ----------------------------------------------------------------------
# worker process: pipe protocol and parent-side proxy
# ----------------------------------------------------------------------
class WorkerCrash(RuntimeError):
    """The worker process died mid-conversation (pipe broke)."""


@dataclass(frozen=True)
class MaintenanceWork:
    """Pipe frame asking a worker to re-program its replica in place.

    Answered like a batch — ``("ok", summary_dict)`` from
    :meth:`Chip.reprogram <repro.compiler.chip.Chip.reprogram>` or
    ``("error", exception)`` — so the parent's maintenance call rides
    the same request/reply protocol as serving (and the same
    :class:`WorkerCrash` path if the worker dies mid-rewrite).
    """


def _replica_worker_main(conn, boot):
    """Worker entry: bind the replica, then serve the pipe until EOF.

    Protocol: parent sends :class:`~repro.serve.batching.BatchWork`
    frames (or ``None`` to shut down); worker answers ``("ok",
    BatchOutcome)`` or ``("error", exception)`` — a failed forward
    resolves that batch's tickets, it never kills the worker.  Boot
    success/failure is the first message so the parent's constructor
    can fail loudly instead of hanging.
    """
    from repro.serve.batching import run_batch

    try:
        chip, segment = bootstrap_chip(boot)
    except BaseException as error:       # noqa: BLE001 — report, don't hang
        try:
            conn.send(("boot_error", error))
        finally:
            conn.close()
        return
    conn.send(("ready", os.getpid()))
    try:
        while True:
            try:
                work = conn.recv()
            except EOFError:
                break
            if work is None:
                break
            if isinstance(work, MaintenanceWork):
                try:
                    result = chip.reprogram()
                except Exception as error:
                    conn.send(("error", error))
                else:
                    conn.send(("ok", result))
                continue
            try:
                outcome = run_batch(chip, work)
            except Exception as error:   # per-batch failure, keep serving
                conn.send(("error", error))
            else:
                conn.send(("ok", outcome))
    finally:
        conn.close()
        segment.close()


class ReplicaProxy:
    """Parent-side handle for one replica worker process.

    The scheduler thread that owns the replica calls :meth:`execute`;
    the pipe round trip blocks in OS reads (GIL released), which is
    where process mode's parallelism comes from — N scheduler threads
    wait while N worker processes compute.
    """

    def __init__(self, boot, *, mp_context, name="repro-pool-worker"):
        self.conn, child = mp_context.Pipe()
        self.process = mp_context.Process(
            target=_replica_worker_main, args=(child, boot),
            name=name, daemon=True)
        self.process.start()
        child.close()
        kind, payload = self.conn.recv()
        if kind != "ready":
            self.process.join()
            raise RuntimeError(
                f"replica worker {name} failed to boot") from payload

    def execute(self, work):
        """Round-trip one batch; raises :class:`WorkerCrash` on death."""
        try:
            self.conn.send(work)
            kind, payload = self.conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrash(
                f"worker {self.process.name} (pid "
                f"{self.process.pid}) died mid-batch") from error
        if kind == "ok":
            return payload
        raise payload

    @property
    def alive(self):
        return self.process.is_alive()

    def shutdown(self, timeout=5.0):
        """Stop the worker (idempotent): sentinel, join, escalate."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass                          # already dead or conn closed
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self.conn.close()


def spawn_replica_workers(chips, *, mp_context=None):
    """Publish a fleet and start one worker process per chip.

    Returns ``(handle, proxies)``.  Must run before the pool starts any
    scheduler thread (fork safety).  On a boot failure every
    already-started worker is stopped and the arena released — no
    stranded processes or segments.
    """
    from repro.runtime.executor import default_mp_context

    mp_context = mp_context or default_mp_context()
    handle, boots = publish_fleet(chips)
    proxies = []
    try:
        for index, boot in enumerate(boots):
            proxies.append(ReplicaProxy(
                boot, mp_context=mp_context,
                name=f"repro-pool-worker-{index}"))
    except BaseException:
        for proxy in proxies:
            proxy.shutdown()
        release(handle.name)
        raise
    return handle, proxies


__all__ = [
    "MaintenanceWork",
    "ReplicaBoot",
    "ReplicaProxy",
    "ShmEntry",
    "ShmHandle",
    "WorkerCrash",
    "active_segments",
    "attach",
    "bootstrap_chip",
    "publish",
    "publish_fleet",
    "release",
    "spawn_replica_workers",
]
