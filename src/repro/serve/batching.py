"""Request primitives and micro-batch formation for
:class:`~repro.serve.pool.ChipPool` (and so for
:class:`~repro.serve.session.InferenceSession`, a one-replica pool).

The pool owns *where* requests queue (one work-stealing queue per
replica); *what* a request is and *how* a micro-batch forms and
executes — in a scheduler thread or across a process boundary — lives
here:

* :class:`InferenceTicket` / :class:`InferenceResult` /
  :class:`RequestTelemetry` — the request handle, its resolved payload,
  and the per-request accounting every surface attaches;
* :func:`canonical_temp` — every operating temperature is normalized to a
  builtin ``float`` at submit time.  Batch coalescing groups requests by
  exact temperature equality, and a ``temp_c`` arriving as
  ``np.float32``/``np.float64`` (or an ``int``) would otherwise compare
  unequal to the same temperature submitted as a builtin float — silently
  defeating batching (and leaking non-JSON-safe scalars into telemetry);
* :class:`MicroBatchQueue` — a FIFO of :class:`PendingRequest` with the
  coalescing pop: the head-of-line request plus every queued request at
  the same temperature, up to the image budget;
* the batch pipeline, split into picklable halves so a batch can cross a
  process boundary (the :class:`~repro.serve.pool.ChipPool`
  ``workers="processes"`` mode): :func:`make_batch_work` flattens the
  pending requests into a :class:`BatchWork` (activations + temperature
  + per-request segments — no tickets, no locks), :func:`run_batch`
  executes it on a chip and returns a :class:`BatchOutcome` (logits +
  metered deltas), and :func:`settle_batch` / :func:`fail_batch` resolve
  the tickets back in the submitting process.  The pool runs this one
  pipeline on both substrates, with :func:`run_batch` inline on a
  scheduler thread or inside a worker process.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np


def canonical_temp(temp_c):
    """Normalize an operating temperature to a canonical builtin float.

    Coalescing compares temperatures by exact equality, so every submit
    path must collapse ``np.float32(27.) / np.float64(27.) / 27 / 27.0``
    onto one representation before the comparison ever happens.
    """
    return float(temp_c)


@dataclass(frozen=True)
class RequestTelemetry:
    """Accounting for one served request."""

    request_id: int
    images: int
    temp_c: float
    #: Images in the micro-batch this request was served with.
    batch_images: int
    #: Time from submit to execution start (batch formation + queueing).
    queue_s: float
    #: Wall time of the micro-batch's forward pass.
    wall_s: float
    #: This request's share of the batch's modeled array latency/energy.
    latency_s: float
    energy_j: float
    #: Pool replica that served the request (0 for a single session).
    replica: int = 0

    def as_dict(self):
        return {
            "request_id": self.request_id, "images": self.images,
            "temp_c": self.temp_c, "batch_images": self.batch_images,
            "queue_s": self.queue_s, "wall_s": self.wall_s,
            "latency_s": self.latency_s, "energy_j": self.energy_j,
            "replica": self.replica,
        }


@dataclass(frozen=True)
class InferenceResult:
    """Logits plus telemetry for one request."""

    logits: np.ndarray
    telemetry: RequestTelemetry


class InferenceTicket:
    """Handle for a submitted request; ``result()`` blocks until served."""

    def __init__(self, request_id):
        self.request_id = request_id
        self._event = threading.Event()
        self._result = None
        self._error = None

    def _resolve(self, result=None, error=None):
        self._result, self._error = result, error
        self._event.set()

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None) -> InferenceResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not served within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result


class PendingRequest:
    """One queued request (internal to the serving surfaces).

    ``pinned`` marks a request bound to its queue's replica
    (``submit_to``): work stealing must not move it — replicas are
    distinct variation draws, so a stolen probe would silently answer
    with a different die's logits.  The pin is released only when the
    pinned replica dies (serving beats failing).

    ``age`` marks whether the request advances the replica's compressed
    device-time clock (:class:`~repro.serve.pool.DriftSpec`).  Health
    probes clear it: a probe takes milliseconds of wall time, not the
    field interval one image of real traffic stands for.
    """

    __slots__ = ("x", "temp_c", "ticket", "enqueued_at", "pinned", "age")

    def __init__(self, x, temp_c, ticket, enqueued_at, pinned=False,
                 age=True):
        self.x = x
        self.temp_c = temp_c
        self.ticket = ticket
        self.enqueued_at = enqueued_at
        self.pinned = pinned
        self.age = age

    @property
    def images(self):
        return self.x.shape[0]


class MicroBatchQueue:
    """FIFO of pending requests with temperature-coalescing batch pops.

    Not thread-safe — the owning session/worker serializes access under
    its own lock (one queue may be touched by its owner *and* stealing
    peers in a pool).
    """

    def __init__(self, max_batch_size):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self.max_batch_size = int(max_batch_size)
        self._queue = deque()

    def push(self, pending):
        self._queue.append(pending)

    def requeue(self, batch):
        """Return a taken batch to the *head*, preserving its order.

        The dead-replica re-dispatch path: the batch had already waited
        to the front of this queue, so it goes back in front of whatever
        queued behind it (thieves take the head first).
        """
        self._queue.extendleft(reversed(batch))

    def take_batch(self):
        """Pop the next micro-batch: head-of-line request plus every queued
        request at the same temperature, up to ``max_batch_size`` images.
        (A request larger than the budget still runs whole — requests are
        never split.)"""
        if not self._queue:
            return []
        head = self._queue.popleft()
        batch, images = [head], head.images
        remaining = deque()
        while self._queue:
            pending = self._queue.popleft()
            if (pending.temp_c == head.temp_c
                    and images + pending.images <= self.max_batch_size):
                batch.append(pending)
                images += pending.images
            else:
                remaining.append(pending)
        self._queue = remaining
        return batch

    def steal_batch(self):
        """Pop the next micro-batch of *stealable* requests.

        Like :meth:`take_batch`, but pinned requests (``submit_to``)
        never leave their replica's queue this way: the batch is the
        oldest non-pinned request plus every later non-pinned request
        at its temperature, up to the budget; pinned requests keep
        their positions.
        """
        head = None
        batch, images = [], 0
        remaining = deque()
        while self._queue:
            pending = self._queue.popleft()
            if pending.pinned:
                remaining.append(pending)
            elif head is None:
                head = pending
                batch, images = [pending], pending.images
            elif (pending.temp_c == head.temp_c
                    and images + pending.images <= self.max_batch_size):
                batch.append(pending)
                images += pending.images
            else:
                remaining.append(pending)
        self._queue = remaining
        return batch

    def head_temp(self):
        """Temperature of the oldest queued request (None when empty)."""
        return self._queue[0].temp_c if self._queue else None

    def stealable_head_temp(self):
        """Temperature of the oldest *stealable* queued request."""
        for pending in self._queue:
            if not pending.pinned:
                return pending.temp_c
        return None

    def has_stealable(self):
        return any(not p.pinned for p in self._queue)

    def stealable_images(self):
        return sum(p.images for p in self._queue if not p.pinned)

    def images_queued(self):
        return sum(p.images for p in self._queue)

    def __len__(self):
        return len(self._queue)

    def __bool__(self):
        return bool(self._queue)


@dataclass(frozen=True)
class BatchReport:
    """Aggregate accounting of one executed micro-batch."""

    requests: int
    images: int
    wall_s: float
    queue_s: float
    energy_j: float
    latency_s: float
    failed: bool = False


@dataclass(frozen=True)
class BatchWork:
    """Picklable execution frame for one micro-batch.

    Everything a chip needs to serve the batch and nothing the
    submitting process must keep (tickets, events, enqueue clocks stay
    behind): the concatenated activation tensor, the coalesced
    temperature, and the per-request image counts that keep dynamic
    activation quantization request-local.  This is the only payload
    shipped *into* a process worker.
    """

    x: np.ndarray
    temp_c: float
    segments: tuple
    #: Device time this batch represents, seconds — how long the chip's
    #: retention clock advances *after* serving it (zero when the
    #: serving surface has no drift model).  Ships with the work frame
    #: so a process worker ages its local :class:`DriftState` in
    #: lockstep with a thread worker serving the same trace.
    advance_s: float = 0.0

    @property
    def images(self):
        return int(self.x.shape[0])


@dataclass(frozen=True)
class BatchOutcome:
    """Picklable result frame for one executed micro-batch.

    Logits plus the chip's metered modeled deltas and the executing
    side's own forward wall time — the only payload shipped *out of* a
    process worker.  Telemetry wall/queue times are finished by the
    submitting process (:func:`settle_batch`), whose clock started the
    batch.
    """

    logits: np.ndarray
    forward_s: float
    energy_j: float
    latency_s: float
    #: :meth:`~repro.devices.retention.DriftState.summary` of the chip's
    #: retention clock after this batch aged it; ``None`` when drift is
    #: disabled.  For a process worker this is the only channel the
    #: worker-local drift state reports home through.
    drift: dict | None = None


def make_batch_work(batch, advance_s=0.0) -> BatchWork:
    """Flatten pending requests into an executable :class:`BatchWork`."""
    x = (batch[0].x if len(batch) == 1
         else np.concatenate([p.x for p in batch], axis=0))
    return BatchWork(x=np.asarray(x), temp_c=batch[0].temp_c,
                     segments=tuple(p.images for p in batch),
                     advance_s=float(advance_s))


def run_batch(chip, work: BatchWork) -> BatchOutcome:
    """Execute one :class:`BatchWork` on ``chip``; meter the delta.

    Exactly one executor may run against a given chip at a time (the
    meter delta is read around the forward pass); both serving surfaces
    guarantee this — one thread per chip, or one chip per worker
    process.

    Serve-then-age: the batch is decoded against the chip's *current*
    retention, and only then does the clock advance by ``advance_s`` at
    the batch temperature.  The ordering is load-bearing — it makes a
    thread fleet and a process fleet replaying the same trace
    bit-identical (both serve batch ``i`` at the state left by batch
    ``i-1``), and it keeps the first batch of a fresh chip exactly
    drift-free.
    """
    start = time.perf_counter()
    before = chip.meter.snapshot()
    logits = chip.forward(work.x, temp_c=work.temp_c,
                          segments=list(work.segments))
    after = chip.meter.snapshot()
    drift = None
    if chip.drift is not None:
        chip.advance_drift(work.advance_s, work.temp_c, ops=work.images)
        drift = chip.drift.summary()
    return BatchOutcome(
        logits=logits, forward_s=time.perf_counter() - start,
        energy_j=after["energy_j"] - before["energy_j"],
        latency_s=after["latency_s"] - before["latency_s"],
        drift=drift)


def fail_batch(batch, error, *, start, commit=None) -> BatchReport:
    """Resolve every ticket of a failed batch with ``error``."""
    report = BatchReport(
        requests=len(batch), images=sum(p.images for p in batch),
        wall_s=time.perf_counter() - start,
        queue_s=sum(start - p.enqueued_at for p in batch),
        energy_j=0.0, latency_s=0.0, failed=True)
    if commit is not None:
        commit(report)
    for pending in batch:
        pending.ticket._resolve(error=error)
    return report


def settle_batch(batch, outcome, *, start, replica=0,
                 commit=None) -> BatchReport:
    """Resolve a served batch's tickets with per-request telemetry.

    ``start`` is the submitting side's execution-start clock, so
    ``wall_s`` covers the whole round trip (for a process worker:
    framing + IPC + forward), and ``queue_s`` the time spent waiting
    before it.  ``commit`` (the caller's totals-update hook) runs with
    the :class:`BatchReport` *before* any ticket resolves: a waiter
    woken by its result must already see the batch in the surface's
    aggregate stats, or a concurrent ``stats()`` read could miss served
    requests.
    """
    wall = time.perf_counter() - start
    batch_images = sum(p.images for p in batch)
    report = BatchReport(
        requests=len(batch), images=batch_images, wall_s=wall,
        queue_s=sum(start - p.enqueued_at for p in batch),
        energy_j=outcome.energy_j, latency_s=outcome.latency_s)
    if commit is not None:
        commit(report)
    temp_c = batch[0].temp_c
    offset = 0
    for pending in batch:
        images = pending.images
        share = images / batch_images
        telemetry = RequestTelemetry(
            request_id=pending.ticket.request_id, images=images,
            temp_c=temp_c, batch_images=batch_images,
            queue_s=start - pending.enqueued_at, wall_s=wall,
            latency_s=outcome.latency_s * share,
            energy_j=outcome.energy_j * share, replica=replica)
        pending.ticket._resolve(InferenceResult(
            logits=outcome.logits[offset:offset + images],
            telemetry=telemetry))
        offset += images
    return report

