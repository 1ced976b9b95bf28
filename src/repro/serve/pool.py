"""``ChipPool`` — sharded multi-chip serving with an async scheduler.

One :class:`~repro.compiler.program.CompiledProgram`, ``N`` physical
:class:`~repro.compiler.chip.Chip` replicas, one request surface.  This
is the serving half of the compile-and-serve split: a pool shards a
request stream across replicas the way a deployed CiM service would
across dies, and :class:`~repro.serve.session.InferenceSession` is the
same pool with one replica.

* **Replicas are variation draws.**  Each replica reprograms its tiles
  with an independent per-tile process-variation draw
  (:meth:`Chip.build_replicas`) — every physical chip is its own die, the
  chip-to-chip axis the source paper and its TReCiM follow-up stress for
  temperature-resilient deployment.  :meth:`ChipPool.divergence` probes
  the fleet's accuracy fluctuation across replicas via
  :func:`repro.metrics.fluctuation.fleet_divergence`.
* **Sharded scheduling with work stealing.**  Every replica owns a
  temperature-coalescing :class:`~repro.serve.batching.MicroBatchQueue`
  and (in threaded mode) one worker thread.  ``submit`` routes each
  request to the least-loaded eligible replica; an idle worker steals the
  oldest waiting batch from a busy or retiring peer — straggler
  re-dispatch, so one slow or drained replica cannot strand queued
  requests.  An idle peer is never robbed: it serves its own queue once
  its linger window closes.
* **Temperature binning.**  ``temp_bins`` partitions the operating range
  at the given edges and assigns replicas to bins round-robin; requests
  route within their bin, and thieves prefer same-bin victims, keeping
  each replica's per-temperature level/decode caches hot.  Binning is a
  placement policy, never a correctness (or utilization) constraint —
  any chip computes any temperature, traffic whose bin has no live
  replica falls back to the whole fleet, and an otherwise-idle replica
  steals cross-bin rather than idling beside a deep queue.
* **Graceful drain/shutdown.**  :meth:`drain` retires one replica: no new
  requests route to it, its queued work finishes (or is stolen), then its
  worker parks.  :meth:`close` drains the whole pool.
* **Fleet telemetry.**  :meth:`stats` returns a :class:`PoolStats`:
  per-replica throughput/queue depth/steals, fleet totals, and the
  modeled-hardware view — replicas are physically parallel chips, so the
  fleet's modeled serving time is the *longest* replica's busy latency
  (makespan), not the sum, and energy prices through
  :mod:`repro.metrics.efficiency` at the mapping's actual row width.

Bit-exactness: batching is request-local on every chip (a batch runs
as one ``chip.forward`` with per-request ``segments``, see
:func:`~repro.serve.batching.run_batch`), so every request gets exactly
the logits of its own ``chip.forward`` on the replica that served it,
and replica 0 is bit-identical to ``Chip(program, design)`` — enforced
against per-request forwards by ``tests/serve/test_pool.py``.

Threading model: any number of producers call :meth:`submit` /
:meth:`infer`; exactly one worker executes each chip (meters and decode
caches never see concurrent execution on one die).
``autostart=False`` runs without threads — :meth:`step` pumps one
micro-batch, round-robin over replica queues, for deterministic tests
and benchmarks.

**Execution substrate** (``workers=`` knob): ``"threads"`` (default)
executes each replica on its scheduler thread — correct everywhere,
but the GIL serializes the per-batch numpy work, so the modeled fleet
speedup stays on paper.  ``"processes"`` publishes the fleet's
immutable program state (bit planes, weights, calibration, frozen
variation draws) once into shared memory and executes each replica in
its own worker process bound zero-copy to that segment
(:mod:`repro.serve.shm`); only activations ship in and
logits/metering deltas ship out.  Scheduling, work stealing,
temperature binning, drain/close, and :class:`PoolStats` stay in the
parent — the scheduler threads dispatch to worker proxies instead of
executing inline, and a worker process dying mid-batch retires its
replica and re-dispatches its queued batches through the existing
work-stealing path.  Logits are bit-identical across both modes (the
workers bind the very same published buffers), enforced by
``tests/serve/test_pool_processes.py``.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.compiler.chip import Chip
from repro.devices.retention import RetentionModel
from repro.metrics.fluctuation import fleet_divergence
from repro.serve import shm
from repro.serve.batching import (
    InferenceResult,
    InferenceTicket,
    MicroBatchQueue,
    PendingRequest,
    canonical_temp,
    fail_batch,
    make_batch_work,
    run_batch,
    settle_batch,
)

_COUNT_KEYS = ("requests", "images", "batches", "batch_images",
               "failed_requests", "failed_batches")
_TOTALS_KEYS = _COUNT_KEYS + ("queue_s", "busy_s", "energy_j", "latency_s")

WORKER_MODES = ("threads", "processes")


def _fresh_totals():
    return {key: 0 if key in _COUNT_KEYS else 0.0 for key in _TOTALS_KEYS}


@dataclass(frozen=True)
class DriftSpec:
    """Retention-drift configuration for a serving pool.

    ``time_per_image_s`` maps served traffic onto device time: after a
    replica serves a batch of ``n`` images at temperature ``T``, its
    retention clock advances ``n * time_per_image_s`` seconds at ``T``
    (serve-then-age, see :func:`~repro.serve.batching.run_batch`).  The
    scale is deliberately decoupled from the modeled MAC latency so a
    short experiment can compress months of field time into a few
    thousand requests.  Zero keeps every chip exactly fresh — the clock
    ticks ops only — which is the bit-identity configuration.

    ``model`` is the :class:`~repro.devices.retention.RetentionModel`
    every replica ages under.  Replicas still diverge because they see
    different traffic (their thermal histories differ), which is what
    the divergence probe attributes maintenance on.
    """

    time_per_image_s: float = 0.0
    model: RetentionModel = None

    def __post_init__(self):
        if self.time_per_image_s < 0:
            raise ValueError("time_per_image_s must be non-negative")
        if self.model is None:
            object.__setattr__(self, "model", RetentionModel())


@dataclass(frozen=True)
class MaintenancePolicy:
    """Thresholds that flag a replica for re-programming.

    A replica is flagged when its argmax agreement with the probe
    reference falls below ``min_agreement``, its mean logit deviation
    exceeds ``max_deviation``, or its reported retention falls below
    ``retention_floor``.  The defaults flag on agreement only — the
    signal the paper's accuracy story is written in.
    """

    min_agreement: float = 0.99
    max_deviation: float = float("inf")
    retention_floor: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.min_agreement <= 1.0:
            raise ValueError("min_agreement must be in [0, 1]")
        if self.max_deviation < 0:
            raise ValueError("max_deviation must be non-negative")
        if not 0.0 <= self.retention_floor <= 1.0:
            raise ValueError("retention_floor must be in [0, 1]")


@dataclass(frozen=True)
class PoolStats:
    """Aggregate pool telemetry: per-replica, fleet, and modeled views.

    ``replicas`` is one JSON-safe dict per replica (throughput, queue
    depth, steals, drain state, modeled energy/latency).  ``totals`` is
    the fleet sum — what the *simulator* did: ``requests``, ``images``
    and ``batches`` count served work, ``failed_requests`` and
    ``failed_batches`` the batches that failed and every request they
    carried (per replica too); its
    ``throughput_img_per_s`` divides fleet images by the **summed**
    per-replica busy time, i.e. the serial-equivalent rate, a
    conservative lower bound that ignores whatever thread parallelism
    the host provided (per-replica dicts carry each replica's own wall
    throughput).  ``modeled`` is what the *hardware* would do: replicas
    are physically
    parallel chips, so fleet serving time is the makespan
    ``max_r latency_r`` and ``parallel_speedup`` is the serial-equivalent
    latency over that makespan; ``tops_per_watt`` prices the fleet's
    metered energy at the mapping's actual row width.

    ``measured`` is the modeled view's wall-clock twin, so the
    modeled/measured gap is observable without running a benchmark:
    per-replica *measured* busy time (``busy_s`` — what each executor
    actually spent, IPC included in process mode), its makespan and
    parallel speedup, and fleet queue-wait.  Per replica, the same gap
    is ``replicas[i]["busy_s"]`` (wall) against
    ``replicas[i]["latency_s"]`` (modeled) plus
    ``replicas[i]["mean_queue_s"]`` (scheduling wait).  On a threaded
    pool the measured parallel speedup hugs 1.0 — the GIL's signature —
    while a process pool on a multi-core host tracks the modeled one.
    """

    replicas: tuple
    totals: dict
    modeled: dict
    measured: dict

    def as_dict(self):
        return {"replicas": list(self.replicas), "totals": dict(self.totals),
                "modeled": dict(self.modeled),
                "measured": dict(self.measured)}


class _ReplicaWorker:
    """One replica's queue, counters, and (in threaded mode) thread.

    ``group`` names the program this replica serves — ``""`` in a
    single-program pool, the registered model name in a
    :class:`~repro.serve.registry.MultiProgramPool`.  Routing and work
    stealing never cross groups: a replica is physically programmed with
    one model's weights.
    """

    __slots__ = ("index", "chip", "bin_index", "queue", "totals", "steals",
                 "draining", "stopped", "dead", "thread", "proxy", "group",
                 "maintaining", "in_flight", "drift_info", "reprograms",
                 "write_energy_j", "write_latency_s", "maintenance_s")

    def __init__(self, index, chip, bin_index, max_batch_size, group=""):
        self.index = index
        self.chip = chip
        self.bin_index = bin_index
        self.group = group
        self.queue = MicroBatchQueue(max_batch_size)
        self.totals = _fresh_totals()
        self.steals = 0          # batches this worker stole from peers
        self.draining = False
        self.stopped = False
        self.dead = False        # worker process died (process mode only)
        self.thread = None
        self.proxy = None        # ReplicaProxy in process mode
        # -- maintenance state (drift-aware pools) ----------------------
        self.maintaining = False  # parked for re-programming, will return
        self.in_flight = 0        # batches taken but not yet settled
        self.drift_info = None    # latest DriftState.summary() (or None)
        self.reprograms = 0
        self.write_energy_j = 0.0
        self.write_latency_s = 0.0
        self.maintenance_s = 0.0  # wall time spent under maintenance

    @property
    def live(self):
        """Eligible for new dispatch: not retiring, not retired, not
        parked for maintenance (a maintaining replica comes back; a
        draining one does not)."""
        return (not self.draining and not self.stopped
                and not self.maintaining)


def _replica_snapshot(worker):
    """JSON-safe counters for one replica (caller holds the pool lock)."""
    totals = dict(worker.totals)
    totals.update(
        index=worker.index, bin=worker.bin_index,
        program=worker.group or None,
        steals=worker.steals, draining=worker.draining,
        stopped=worker.stopped, dead=worker.dead,
        maintaining=worker.maintaining,
        queue_depth=len(worker.queue),
        queued_images=worker.queue.images_queued(),
        drift=(dict(worker.drift_info)
               if worker.drift_info is not None else None),
        reprograms=worker.reprograms,
        write_energy_j=worker.write_energy_j,
        write_latency_s=worker.write_latency_s,
        maintenance_s=worker.maintenance_s)
    return totals


def _pool_stats(per_replica, tops_per_watt) -> PoolStats:
    """Aggregate replica snapshots into a :class:`PoolStats`.

    Shared by the single-program pool (all replicas) and the
    multi-program pool (one group's replicas at a time).
    """
    fleet = {key: sum(r[key] for r in per_replica)
             for key in _TOTALS_KEYS}
    for replica in per_replica:
        batches = max(replica["batches"], 1)
        replica["mean_batch_images"] = \
            replica.pop("batch_images") / batches
        busy = replica["busy_s"]
        replica["throughput_img_per_s"] = \
            replica["images"] / busy if busy > 0 else 0.0
        replica["mean_queue_s"] = \
            replica["queue_s"] / max(replica["requests"], 1)
    busy = fleet["busy_s"]
    images = fleet["images"]
    served = [r for r in per_replica if r["images"]]
    imbalance = 0.0
    if len(served) > 1:
        counts = [r["images"] for r in served]
        imbalance = (max(counts) - min(counts)) / np.mean(counts)
    # Maintenance accounting rides outside _TOTALS_KEYS (those are the
    # per-batch commit counters); summed explicitly here.
    write_energy_j = sum(r.get("write_energy_j", 0.0) for r in per_replica)
    write_latency_s = sum(r.get("write_latency_s", 0.0)
                          for r in per_replica)
    reprograms = sum(r.get("reprograms", 0) for r in per_replica)
    maintenance_s = sum(r.get("maintenance_s", 0.0) for r in per_replica)
    totals = {
        "replicas": len(per_replica),
        "requests": fleet["requests"],
        "images": images,
        "batches": fleet["batches"],
        "failed_requests": fleet["failed_requests"],
        "failed_batches": fleet["failed_batches"],
        "mean_queue_s": fleet["queue_s"] / max(fleet["requests"], 1),
        "busy_s": busy,
        "throughput_img_per_s": images / busy if busy > 0 else 0.0,
        "steals": sum(r["steals"] for r in per_replica),
        "load_imbalance": float(imbalance),
        "reprograms": reprograms,
        "write_energy_j": write_energy_j,
        "write_latency_s": write_latency_s,
        "maintenance_s": maintenance_s,
    }
    # The hardware view: replicas are physically parallel chips, so
    # the fleet's modeled serving time is the slowest replica's busy
    # latency, and the serial-equivalent time is the sum.
    serial_s = fleet["latency_s"]
    makespan_s = max((r["latency_s"] for r in per_replica), default=0.0)
    # Maintenance rewrites cost real energy the read-path TOPS/W never
    # sees: the *effective* efficiency derates serving efficiency by the
    # fraction of fleet energy that went into reads rather than rewrites.
    total_energy = fleet["energy_j"] + write_energy_j
    modeled = {
        "energy_j": fleet["energy_j"],
        "energy_j_per_image": fleet["energy_j"] / max(images, 1),
        "serial_latency_s": serial_s,
        "makespan_s": makespan_s,
        "parallel_speedup": (serial_s / makespan_s
                             if makespan_s > 0 else 1.0),
        "throughput_img_per_s": (images / makespan_s
                                 if makespan_s > 0 else 0.0),
        "tops_per_watt": tops_per_watt,
        "write_energy_j": write_energy_j,
        "tops_per_watt_effective": (
            tops_per_watt * fleet["energy_j"] / total_energy
            if total_energy > 0 else tops_per_watt),
    }
    # The modeled view's wall-clock twin: what the executors actually
    # spent, so the modeled/measured gap is visible without a benchmark.
    wall_makespan_s = max((r["busy_s"] for r in per_replica), default=0.0)
    measured = {
        "busy_s": busy,
        "makespan_s": wall_makespan_s,
        "parallel_speedup": (busy / wall_makespan_s
                             if wall_makespan_s > 0 else 1.0),
        "throughput_img_per_s": (images / wall_makespan_s
                                 if wall_makespan_s > 0 else 0.0),
        "queue_s": fleet["queue_s"],
        "mean_queue_s": fleet["queue_s"] / max(fleet["requests"], 1),
        "maintenance_s": maintenance_s,
        # Fraction of executor time spent serving rather than parked in
        # maintenance — the availability cost of the rewrite policy.
        "availability": (busy / (busy + maintenance_s)
                         if busy + maintenance_s > 0 else 1.0),
    }
    return PoolStats(replicas=tuple(per_replica), totals=totals,
                     modeled=modeled, measured=measured)


class ChipPool:
    """Sharded micro-batched serving over N chip replicas of one program."""

    def __init__(self, program, design, n_replicas=2, *, temp_bins=None,
                 max_batch_size=64, linger_s=0.002, autostart=True,
                 workers="threads", chips=None, drift=None):
        # Cheap parameter validation first — replica bring-up programs
        # whole chips, and an invalid pool should fail before paying it.
        if workers not in WORKER_MODES:
            raise ValueError(
                f"workers must be one of {WORKER_MODES}, got {workers!r}")
        if chips is not None:
            if len(chips) < 1:
                raise ValueError("a pool needs at least one replica")
            for chip in chips:
                if chip.program is not program:
                    raise ValueError(
                        "every pool replica must be programmed from the "
                        "pool's own CompiledProgram (routing, default "
                        "temperature, and telemetry all read its mapping)")
            n_replicas = len(chips)
        if linger_s < 0:
            raise ValueError("linger_s must be non-negative")
        self.program = program
        self.temp_bins = (tuple(sorted(canonical_temp(t) for t in temp_bins))
                          if temp_bins else None)
        n_bins = len(self.temp_bins) + 1 if self.temp_bins else 1
        if self.temp_bins and n_replicas < n_bins:
            raise ValueError(
                f"{n_bins} temperature bins need at least {n_bins} "
                f"replicas, got {n_replicas}")
        if chips is None:
            chips = Chip.build_replicas(program, design, n_replicas)
        # Drift must attach before _setup: process mode publishes the
        # fleet there, and the boot payloads carry each chip's model.
        self.drift_spec = drift
        if drift is not None:
            for chip in chips:
                chip.enable_drift(model=drift.model)
        replica_workers = [
            _ReplicaWorker(i, chip, i % n_bins if self.temp_bins else 0,
                           max_batch_size)
            for i, chip in enumerate(chips)]
        self._setup(replica_workers, max_batch_size, linger_s, autostart,
                    worker_mode=workers)

    def _setup(self, workers, max_batch_size, linger_s, autostart,
               worker_mode="threads"):
        """Shared scheduler bring-up: state, processes, then threads.

        Factored out so :class:`~repro.serve.registry.MultiProgramPool`
        can construct heterogeneous worker groups and reuse the whole
        scheduling/lifecycle machinery unchanged.  In process mode the
        worker processes must fork *before* any scheduler thread starts
        (forking a multi-threaded parent clones only the forking
        thread, stranding lock state), so the order here is load-bearing.
        """
        if worker_mode not in WORKER_MODES:
            raise ValueError(
                f"workers must be one of {WORKER_MODES}, "
                f"got {worker_mode!r}")
        self.max_batch_size = int(max_batch_size)
        self.linger_s = float(linger_s)
        self.worker_mode = worker_mode
        # Subclasses reaching _setup directly (MultiProgramPool) run a
        # drift-free fleet unless they set the spec themselves.
        self.drift_spec = getattr(self, "drift_spec", None)
        self._cond = threading.Condition()
        self.workers = tuple(workers)
        self._closed = False
        self._next_id = 0
        self._rr = 0              # round-robin cursors (dispatch ties, step)
        self._threaded = bool(autostart)
        self._shm_handle = None
        if worker_mode == "processes":
            handle, proxies = shm.spawn_replica_workers(
                [worker.chip for worker in self.workers])
            self._shm_handle = handle
            for worker, proxy in zip(self.workers, proxies):
                worker.proxy = proxy
        if autostart:
            for worker in self.workers:
                worker.thread = threading.Thread(
                    target=self._serve_loop, args=(worker,),
                    name=f"repro-pool-{worker.index}", daemon=True)
                worker.thread.start()

    @classmethod
    def from_artifact(cls, store, fingerprint, *, design=None,
                      n_replicas=2, check_code_version=True, **kwargs):
        """Bring a pool up from a stored artifact — the warm-start path.

        Replica 0 *is* the restored chip (bit-identical to the chip that
        was saved); replicas 1..n-1 redraw per-tile variation from the
        mapping's replica seeds exactly as a cold
        :meth:`Chip.build_replicas` would, so a warm fleet serves the
        same logits as a cold fleet of the same program.  ``kwargs``
        pass through to the pool constructor (``temp_bins``,
        ``max_batch_size``, ``autostart``, ...).
        """
        first = store.load_chip(fingerprint, design=design,
                                check_code_version=check_code_version)
        chips = Chip.build_replicas(first.program, first.design,
                                    n_replicas, first=first)
        return cls(first.program, first.design, chips=chips, **kwargs)

    # ------------------------------------------------------------------
    # request surface
    # ------------------------------------------------------------------
    @property
    def n_replicas(self):
        return len(self.workers)

    @property
    def chips(self):
        return tuple(worker.chip for worker in self.workers)

    @property
    def mapping(self):
        return self.program.mapping

    def bin_for(self, temp_c):
        """Index of the temperature bin ``temp_c`` falls in (0 unbinned)."""
        if not self.temp_bins:
            return 0
        return bisect_right(self.temp_bins, canonical_temp(temp_c))

    def _default_temp(self, group):
        """Operating temperature for requests that do not override it."""
        return self.mapping.temp_c

    def _eligible_workers(self, temp, group=""):
        """Live replicas a request at ``temp`` may route to.

        Binning is a locality policy, not a correctness constraint: when
        the matching bin has no live replica, traffic falls back to every
        live replica of the group rather than failing.  The group bound
        *is* a correctness constraint — a replica serves only the
        program its tiles are written with.
        """
        live = [w for w in self.workers if w.live and w.group == group]
        if not live:
            return []
        if self.temp_bins:
            bin_index = self.bin_for(temp)
            binned = [w for w in live if w.bin_index == bin_index]
            if binned:
                return binned
        return live

    def _pick_worker(self, temp, group=""):
        """Least-loaded eligible replica (queued images; ties round-robin)."""
        eligible = self._eligible_workers(temp, group)
        if not eligible:
            raise RuntimeError("all pool replicas are drained")
        load = min(w.queue.images_queued() for w in eligible)
        tied = [w for w in eligible if w.queue.images_queued() == load]
        worker = tied[self._rr % len(tied)]
        self._rr += 1
        return worker

    def _enqueue(self, x, temp_c, *, worker=None, group="", age=True):
        x = np.asarray(x)
        if x.shape[0] < 1:
            raise ValueError("a request needs at least one image")
        temp = canonical_temp(self._default_temp(group) if temp_c is None
                              else temp_c)
        with self._cond:
            if self._closed:
                raise RuntimeError("pool is closed")
            target = worker if worker is not None else \
                self._pick_worker(temp, group)
            if not target.live:
                raise RuntimeError(
                    f"replica {target.index} is drained")
            ticket = InferenceTicket(self._next_id)
            self._next_id += 1
            target.queue.push(
                PendingRequest(x, temp, ticket, time.perf_counter(),
                               pinned=worker is not None, age=age))
            self._cond.notify_all()
        return ticket

    def submit(self, x, temp_c=None) -> InferenceTicket:
        """Enqueue a request on the least-loaded eligible replica.

        ``x`` is one request's image tensor (N, H, W, C) or feature
        matrix (N, F); ``temp_c`` overrides the mapping's operating
        temperature for this request only (normalized to a canonical
        float, so mixed numeric dtypes coalesce into one batch).
        """
        return self._enqueue(x, temp_c)

    def submit_to(self, replica_index, x, temp_c=None, *,
                  age=True) -> InferenceTicket:
        """Pin a request to one replica (probes, tests, A/B comparisons).

        The pin is honored by work stealing — the request is served by
        this replica's chip (this exact variation draw), or rerouted
        only if the replica dies.  ``age=False`` keeps the request off
        the replica's compressed device-time clock (health probes
        measure drift; they should not cause it).
        """
        worker = self.workers[replica_index]
        return self._enqueue(x, temp_c, worker=worker, group=worker.group,
                             age=age)

    def infer(self, x, temp_c=None) -> InferenceResult:
        """Synchronous request: submit and wait (pumps in sync mode)."""
        ticket = self.submit(x, temp_c=temp_c)
        self._pump(ticket)
        return ticket.result()

    def _pump(self, *tickets):
        """In ``autostart=False`` mode, step until ``tickets`` resolve."""
        if not self._threaded:
            while not all(t.done() for t in tickets):
                if not self.step():
                    break

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _victims(self, thief):
        """Peers ``thief`` may steal from (caller holds the lock).

        A victim is a same-group straggler with stealable work queued:
        busy with a batch, or retiring (draining, maintaining, dead).
        An idle live peer is never robbed — its own thread serves its
        queue when its linger window closes.  Under the GIL such an
        owner can wait milliseconds for the interpreter while a thief
        runs, and robbing it would pile a whole burst onto one replica.
        """
        return [w for w in self.workers
                if w is not thief and w.group == thief.group
                and (w.in_flight or not w.live)
                and w.queue.has_stealable()]

    def _steal_batch_locked(self, thief):
        """Take the oldest eligible batch from the most-loaded victim.

        The straggler re-dispatch path: requests were routed when queue
        depths looked different, so an idle worker pulls the *head* (the
        longest-waiting requests) of the deepest queue behind a busy or
        retiring peer (:meth:`_victims`).  Same-bin victims are
        preferred (stolen work stays on warm level/decode caches), but
        an otherwise-idle thief falls back to any victim — binning is a
        locality policy, and locality never justifies an idle chip next
        to a deep queue.  Draining peers are valid victims: stealing
        accelerates a drain.  Victims always come from the thief's own
        group: stolen work must run on a chip programmed with the same
        model.  Pinned requests (``submit_to`` probes — replica A/B
        comparisons, divergence) are never stolen: replicas are distinct
        variation draws, and a stolen probe would silently answer with a
        different die's logits.
        """
        victims = self._victims(thief)
        if not victims:
            return []
        if self.temp_bins:
            same_bin = [w for w in victims
                        if self.bin_for(w.queue.stealable_head_temp())
                        == thief.bin_index]
            victims = same_bin or victims
        victim = max(victims, key=lambda w: w.queue.stealable_images())
        return victim.queue.steal_batch()

    def _execute(self, worker, batch, *, stolen=False):
        """Run one batch on a replica; totals commit before tickets
        resolve, so a waiter woken by its result always finds its batch
        in :meth:`stats`.

        One pipeline on both substrates: flatten the batch
        (:func:`~repro.serve.batching.make_batch_work`), run it on the
        replica's chip — inline on this thread, or round-tripped through
        the worker proxy in process mode (the scheduler thread blocks in
        pipe I/O, GIL released, while the worker computes) — then settle
        or fail every ticket.  Any error, from stacking the requests to
        the forward, fails just this batch and the replica keeps
        serving.  A broken pipe means the worker process died: the
        replica is retired and the batch re-dispatched
        (:meth:`_abandon_replica`).
        """

        def commit(report):
            with self._cond:
                if stolen:
                    worker.steals += 1
                totals = worker.totals
                if report.failed:
                    # Every request of a failed batch fails with it.
                    totals["failed_requests"] += report.requests
                    totals["failed_batches"] += 1
                else:
                    totals["requests"] += report.requests
                    totals["images"] += report.images
                    totals["queue_s"] += report.queue_s
                    totals["energy_j"] += report.energy_j
                    totals["latency_s"] += report.latency_s
                    totals["batches"] += 1
                    totals["batch_images"] += report.images
                    totals["busy_s"] += report.wall_s
                # A batch leaving the system can unblock waiting workers'
                # exit conditions (close/drain with thieves parked).
                self._cond.notify_all()

        spec = self.drift_spec
        advance_s = (spec.time_per_image_s
                     * sum(p.images for p in batch if p.age)
                     if spec is not None else 0.0)
        with self._cond:
            worker.in_flight += 1
            if worker.queue.has_stealable():
                # What this batch left queued is now stealable.
                self._cond.notify_all()
        start = time.perf_counter()
        try:
            work = make_batch_work(batch, advance_s=advance_s)
            outcome = (run_batch(worker.chip, work) if worker.proxy is None
                       else worker.proxy.execute(work))
        except shm.WorkerCrash as crash:
            self._abandon_replica(worker, batch, crash)
        except Exception as error:       # fails this batch, replica OK
            fail_batch(batch, error, start=start, commit=commit)
        else:
            if outcome.drift is not None:
                with self._cond:
                    worker.drift_info = dict(outcome.drift)
            settle_batch(batch, outcome, start=start,
                         replica=worker.index, commit=commit)
        finally:
            with self._cond:
                worker.in_flight -= 1
                # Maintenance waits on queue-empty *and* in-flight zero.
                self._cond.notify_all()

    def _abandon_replica(self, worker, batch, crash):
        """A replica's worker process died mid-batch: retire and
        re-dispatch.

        The replica is marked dead (its scheduler thread parks on the
        next loop iteration, routing already excludes it) and the
        in-flight batch goes back to the *head* of its queue, where the
        existing work-stealing path re-dispatches it to live same-group
        peers.  Only when no live peer remains — or in sync mode, which
        has no thieves — do the stranded tickets resolve directly:
        rerouted onto survivors' queues (sync) or failed with the crash
        (no survivors).
        """
        with self._cond:
            worker.dead = True
            worker.draining = True
            survivors = [w for w in self.workers
                         if w is not worker and w.live
                         and w.group == worker.group]
            stranded = list(batch)
            while worker.queue:
                stranded.extend(worker.queue.take_batch())
            if not survivors:
                for pending in stranded:
                    pending.ticket._resolve(error=shm.WorkerCrash(
                        f"replica {worker.index} died with no live "
                        f"replica left to serve its queue: {crash}"))
            else:
                for pending in stranded:
                    pending.pinned = False   # the pinned target is gone
                if self._threaded:
                    worker.queue.requeue(stranded)
                else:
                    for pending in stranded:
                        self._pick_worker(pending.temp_c,
                                          worker.group).queue.push(pending)
            self._cond.notify_all()

    def _serve_loop(self, worker):
        while True:
            with self._cond:
                while True:
                    # A dead replica parks unconditionally — before the
                    # queue check, or its thread would re-execute its own
                    # requeued batch on the dead proxy forever.  Peers
                    # steal whatever its queue still holds.
                    if worker.dead:
                        worker.stopped = True
                        self._cond.notify_all()
                        return
                    if worker.queue:
                        break
                    if (not worker.draining and not worker.maintaining
                            and self._steal_available(worker)):
                        break
                    if self._closed or worker.draining:
                        worker.stopped = True
                        self._cond.notify_all()
                        return
                    # A maintaining worker parks here (queue empty, no
                    # stealing) but does NOT exit — maintenance hands the
                    # replica back by clearing the flag and notifying.
                    self._cond.wait()
            # Linger briefly so a burst of submitters lands in one batch —
            # but only over the worker's *own* queue: a woken thief holds
            # nothing to coalesce, and the batch it is about to steal has
            # already waited at the straggler.
            if self.linger_s and worker.queue:
                deadline = time.perf_counter() + self.linger_s
                with self._cond:
                    while (time.perf_counter() < deadline
                           and not self._closed and not worker.draining
                           and worker.queue.images_queued()
                           < self.max_batch_size):
                        remaining = deadline - time.perf_counter()
                        if remaining > 0:
                            self._cond.wait(timeout=remaining)
            with self._cond:
                batch = worker.queue.take_batch()
                stolen = False
                if (not batch and not worker.draining
                        and not worker.maintaining):
                    batch = self._steal_batch_locked(worker)
                    stolen = bool(batch)
            if batch:
                self._execute(worker, batch, stolen=stolen)

    def _steal_available(self, thief):
        """Any peer queue this worker could steal from (caller holds lock)."""
        return bool(self._victims(thief))

    def step(self):
        """Synchronously serve one micro-batch from the next non-empty
        replica queue (round-robin); returns the number of requests
        served.  The manual pump for ``autostart=False`` pools."""
        with self._cond:
            batch, worker = [], None
            for offset in range(len(self.workers)):
                candidate = self.workers[(self._rr + offset)
                                         % len(self.workers)]
                if candidate.queue:
                    worker = candidate
                    batch = candidate.queue.take_batch()
                    self._rr = (self._rr + offset + 1) % len(self.workers)
                    break
        if not batch:
            return 0
        self._execute(worker, batch)
        return len(batch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, replica_index, *, wait=True):
        """Gracefully retire one replica.

        No new requests route to it; its queued requests finish (served
        by it, or stolen by same-bin peers), then its worker parks.  With
        ``wait`` (threaded mode) the call returns once the replica has
        fully stopped.  In sync mode the caller keeps pumping
        :meth:`step` until its queue empties.
        """
        worker = self.workers[replica_index]
        with self._cond:
            worker.draining = True
            self._cond.notify_all()
            if not self._threaded:
                worker.stopped = True   # sync mode has no thread to park
                return                  # its proxy serves until close()
            if wait:
                while not worker.stopped:
                    self._cond.wait()
        # A fully-stopped replica executes nothing ever again, so its
        # worker process can go now instead of lingering until close().
        # (The shared segment stays — the surviving replicas map it.)
        if wait and worker.proxy is not None:
            worker.proxy.shutdown()

    def maintain(self, replica_index):
        """Drain one replica, re-program it in place, return it to
        rotation.

        The maintenance path of a drift-aware fleet: the replica stops
        taking new work (``maintaining`` excludes it from routing and
        stealing, but — unlike :meth:`drain` — its thread parks instead
        of exiting), every request already queued on it is served first
        (pinned probes included: serving beats failing), then the chip
        rewrites its tiles (:meth:`Chip.reprogram
        <repro.compiler.chip.Chip.reprogram>` — locally, or via a
        :class:`~repro.serve.shm.MaintenanceWork` pipe frame in process
        mode), its drift clock resets, and the replica rejoins the
        fleet.  Write energy/latency and the maintenance wall time land
        in :class:`PoolStats`.  A worker crash mid-rewrite retires the
        replica through the normal crash path and re-raises.

        Returns the rewrite summary dict.
        """
        worker = self.workers[replica_index]
        with self._cond:
            if self._closed:
                raise RuntimeError("pool is closed")
            if worker.dead or worker.stopped or worker.draining:
                raise RuntimeError(
                    f"replica {replica_index} is not serving "
                    f"(dead/drained replicas cannot be maintained)")
            if worker.maintaining:
                raise RuntimeError(
                    f"replica {replica_index} is already under "
                    f"maintenance")
            worker.maintaining = True
            self._cond.notify_all()
        start = time.perf_counter()
        try:
            # Quiesce: everything already queued on this replica is
            # served by it (its own thread keeps draining its queue;
            # peers may steal the non-pinned tail) before the rewrite.
            if self._threaded:
                with self._cond:
                    while ((worker.queue or worker.in_flight)
                           and not worker.dead):
                        self._cond.wait()
            else:
                while worker.queue:
                    if not self.step():
                        break
            if worker.dead:
                raise shm.WorkerCrash(
                    f"replica {replica_index} died before maintenance")
            if worker.proxy is not None:
                try:
                    result = worker.proxy.execute(shm.MaintenanceWork())
                except shm.WorkerCrash as crash:
                    self._abandon_replica(worker, [], crash)
                    raise
            else:
                result = worker.chip.reprogram()
            wall = time.perf_counter() - start
            with self._cond:
                worker.reprograms += 1
                worker.write_energy_j += result["write_energy_j"]
                worker.write_latency_s += result["write_latency_s"]
                worker.maintenance_s += wall
                if worker.drift_info is not None:
                    info = dict(worker.drift_info)
                    info["retention"] = 1.0
                    info["elapsed_s"] = 0.0
                    info["xi"] = 0.0
                    worker.drift_info = info
            return result
        finally:
            with self._cond:
                worker.maintaining = False
                self._cond.notify_all()

    def _shutdown_workers(self):
        """Stop worker processes and release the shared arena (idempotent).

        Ordering: every scheduler thread has exited (or sync mode has
        drained) before this runs, so no proxy is mid-batch.  Workers
        get the sentinel and are joined; only then is the segment
        unlinked — the name disappears from the registry, and the
        mapping disappears with the last process that closes it.
        """
        for worker in self.workers:
            if worker.proxy is not None:
                worker.proxy.shutdown()
        if self._shm_handle is not None:
            shm.release(self._shm_handle.name)
            self._shm_handle = None

    def close(self):
        """Stop accepting requests; every queued request is still served."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._threaded:
            for worker in self.workers:
                if worker.thread is not None:
                    worker.thread.join()
        else:
            while self.step():
                pass
        self._shutdown_workers()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # ------------------------------------------------------------------
    # fleet telemetry
    # ------------------------------------------------------------------
    def divergence(self, x, temp_c=None, *, _group=""):
        """Serve one probe batch on *every* live replica and compare.

        The probe rides the normal scheduling path (pinned per replica),
        so it is safe during active serving — each chip still sees one
        executor — and it shows up in the pool's request totals like any
        other traffic.  Unlike traffic it does not advance the replicas'
        compressed device-time clocks (``age=False``): probing for drift
        must not itself cause drift.  Returns the fleet
        accuracy-fluctuation metrics of
        :func:`repro.metrics.fluctuation.fleet_divergence` plus the probe
        bookkeeping.
        """
        live = [w.index for w in self.workers
                if w.live and w.group == _group]
        if not live:
            raise RuntimeError("no live replicas to probe")
        tickets = [self.submit_to(i, x, temp_c=temp_c, age=False)
                   for i in live]
        self._pump(*tickets)
        logits = np.stack([t.result().logits for t in tickets])
        metrics = fleet_divergence(logits)
        metrics["replicas"] = live
        metrics["deviation"] = [float(d) for d in metrics["deviation"]]
        if "argmax_agreement" in metrics:
            metrics["argmax_agreement"] = [
                float(a) for a in metrics["argmax_agreement"]]
        if self.drift_spec is not None:
            # Drift attribution: each probed replica's last reported
            # remaining-polarization fraction, aligned with "replicas".
            with self._cond:
                metrics["retention"] = [
                    (self.workers[i].drift_info or {}).get("retention")
                    for i in live]
        return metrics

    def check_health(self, x, policy, temp_c=None, *, _group=""):
        """Online health probe: divergence metrics plus flagged replicas.

        Runs :meth:`divergence` and applies a
        :class:`MaintenancePolicy`: every probed replica violating a
        threshold lands in ``metrics["flagged"]`` with its index, the
        reasons, and its drift attribution — ready to feed
        :meth:`maintain`.  The reference replica (first probed) is never
        flagged on agreement with itself; it can still be flagged on its
        own retention floor.
        """
        metrics = self.divergence(x, temp_c=temp_c, _group=_group)
        agreements = metrics.get("argmax_agreement")
        deviations = metrics["deviation"]
        retention = metrics.get("retention")
        flagged = []
        for pos, index in enumerate(metrics["replicas"]):
            reasons = []
            if (agreements is not None and pos != 0
                    and agreements[pos] < policy.min_agreement):
                reasons.append("argmax_agreement")
            if pos != 0 and deviations[pos] > policy.max_deviation:
                reasons.append("deviation")
            r = retention[pos] if retention is not None else None
            if r is not None and r < policy.retention_floor:
                reasons.append("retention")
            if reasons:
                flagged.append({"replica": index, "reasons": reasons,
                                "retention": r})
        metrics["flagged"] = flagged
        return metrics

    def stats(self) -> PoolStats:
        """Aggregate fleet telemetry; safe to call during active serving."""
        with self._cond:
            per_replica = [_replica_snapshot(w) for w in self.workers]
        return _pool_stats(per_replica,
                           self.workers[0].chip.meter.tops_per_watt)

    def reset_stats(self):
        """Zero every replica's counters (benchmarks reset after warm-up).

        Parent-side scheduling totals only; the chips' cumulative
        :class:`~repro.compiler.chip.ChipMeter` state is untouched —
        per-batch accounting reads meter *deltas*, so it needs no reset,
        and in process mode the parent-side chip never meters at all.
        """
        with self._cond:
            for worker in self.workers:
                worker.totals = _fresh_totals()
                worker.steals = 0
                worker.reprograms = 0
                worker.write_energy_j = 0.0
                worker.write_latency_s = 0.0
                worker.maintenance_s = 0.0

    def __repr__(self):
        bins = len(self.temp_bins) + 1 if self.temp_bins else 1
        return (f"ChipPool({self.program.design_name}, "
                f"replicas={self.n_replicas}, bins={bins}, "
                f"max_batch_size={self.max_batch_size}, "
                f"workers={self.worker_mode!r}, "
                f"closed={self._closed})")
