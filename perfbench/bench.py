"""One benchmark run: bring-up, closed-loop traffic, checks, metrics.

Everything here drives the public ``repro`` API: ``compile_model``,
``ChipPool`` (``submit``/``submit_to``/``stats``/``check_health``/
``maintain``), ``Chip`` and the ``MacCalibration`` round trip.  Host
times measure this simulator; ``modeled_*`` values are simulated
hardware, calibrated to the paper and not validated against silicon.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from perfbench import layers
from perfbench import workloads as W
from perfbench.stats import failed_frac, latency_summary

from repro.array.mac_unit import BehavioralMacConfig, BitSerialMacUnit
from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.constants import REFERENCE_TEMP_C
from repro.devices.retention import RetentionModel
from repro.serve import (
    ChipPool,
    DriftSpec,
    MaintenancePolicy,
    build_serving_workload,
)

RESULT_TIMEOUT_S = 120.0
SETUP_REPEATS = 3
THROUGHPUT_WINDOWS = 5

#: The accelerated film of ``repro fleet-sim``: months of retention loss
#: in a few thousand requests.
FLEET_DRIFT = DriftSpec(
    time_per_image_s=600.0,
    model=RetentionModel(tau0_s=7e-3, activation_ev=0.5, beta=0.4))
#: Flag on the retention floor only; agreement and deviation never flag.
FLEET_POLICY = MaintenancePolicy(min_agreement=0.0, retention_floor=0.7)


class _NoSpans:
    """Stand-in recorder for untraced runs: spans cost nothing."""

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    _null = _Null()

    def span(self, name):
        return self._null

    def request(self, *args):
        pass


NO_SPANS = _NoSpans()


def build_model():
    model, _ = build_serving_workload(0, width=W.MODEL_WIDTH,
                                      image_size=W.IMAGE_SIZE,
                                      seed=W.MODEL_SEED)
    return model


def mapping_for(workload, backend="fused"):
    return MappingConfig(tile_rows=W.TILE_ROWS, tile_cols=W.TILE_COLS,
                         backend=backend, seed=W.MODEL_SEED,
                         sigma_vth_fefet=workload.sigma_vth_fefet,
                         bits_per_cell=workload.bits_per_cell)


def bring_up(workload, design, model, spans=NO_SPANS):
    """Compile, calibrate, program, build replicas, start workers, and
    warm every replica's decode caches at every workload temperature."""
    with spans.span("compiler.compile"):
        program = compile_model(model, design, mapping_for(workload))
    with spans.span("serve.pool_init"):
        pool = ChipPool(program, design, n_replicas=W.N_REPLICAS,
                        temp_bins=workload.temp_bins,
                        max_batch_size=W.MAX_BATCH_SIZE,
                        workers=workload.workers,
                        drift=FLEET_DRIFT if workload.drift else None)
    with spans.span("serve.warm_up"):
        # A full batch on every replica at once reaches the pool's peak
        # working set; one image per temperature fills the decode caches.
        full = W.probe_images(W.MODEL_SEED, n=W.MAX_BATCH_SIZE)
        tickets = [pool.submit_to(i, full, temp_c=workload.temps[0],
                                  age=False)
                   for i in range(pool.n_replicas)]
        tickets += [pool.submit_to(i, full[:1], temp_c=temp, age=False)
                    for temp in workload.temps
                    for i in range(pool.n_replicas)]
        for ticket in tickets:
            ticket.result(timeout=RESULT_TIMEOUT_S)
    pool.reset_stats()
    return program, pool


@dataclass
class Record:
    """Outcome of one request as the generator saw it."""

    index: int
    images: int
    temp_c: float
    malformed: bool
    ok: bool
    latency_s: float
    done_ns: int = 0
    queue_s: float = 0.0
    round_trip_s: float = 0.0
    replica: int = -1
    x: np.ndarray = None
    logits: np.ndarray = None


@dataclass
class FleetLog:
    """Health probes, maintenance, and post-maintenance checks."""

    probe: np.ndarray
    expected: np.ndarray
    probes: int = 0
    maintains: int = 0
    checks: int = 0
    mismatches: int = 0

    def verify(self, pool, replica):
        """A just-rewritten replica must answer like a fresh one."""
        got = pool.submit_to(replica, self.probe, temp_c=REFERENCE_TEMP_C,
                             age=False).result(timeout=RESULT_TIMEOUT_S)
        self.checks += 1
        if not np.array_equal(got.logits, self.expected):
            self.mismatches += 1

    def probe_and_maintain(self, pool, spans):
        with spans.span("fleet.check_health"):
            report = pool.check_health(self.probe, FLEET_POLICY,
                                       temp_c=REFERENCE_TEMP_C)
        self.probes += 1
        for flag in report["flagged"]:
            with spans.span("fleet.maintain"):
                pool.maintain(flag["replica"])
            self.maintains += 1
            self.verify(pool, flag["replica"])


@dataclass
class Phase:
    records: list
    start_ns: int
    end_ns: int

    @property
    def ok(self):
        return [r for r in self.records if r.ok and not r.malformed]

    def windows(self):
        """Successful requests by completion time, in equal windows."""
        width = (self.end_ns - self.start_ns) / THROUGHPUT_WINDOWS
        slots = [[] for _ in range(THROUGHPUT_WINDOWS)]
        for r in self.ok:
            slot = int((r.done_ns - self.start_ns) // width)
            slots[min(slot, THROUGHPUT_WINDOWS - 1)].append(r)
        return slots, width / 1e9

    def window_rates(self):
        """Images completed per second in each window."""
        slots, width_s = self.windows()
        return [sum(r.images for r in slot) / width_s for slot in slots]

    @property
    def throughput_img_s(self):
        return statistics.median(self.window_rates())


def closed_loop(pool, requests, *, seconds=None, keep=(), spans=NO_SPANS,
                fleet=None):
    """Serve ``requests`` with ``OUTSTANDING`` requests in flight.

    One generator (this thread) submits, then waits for the oldest
    request before submitting the next.  Latency is submit to result as
    the generator sees it.  With ``seconds`` the loop stops submitting
    at the deadline and drains what is in flight; otherwise it serves
    ``requests`` to the end.  With a ``fleet`` log, every ``PROBE_EVERY``
    submissions the generator drains and runs its probe, so the
    maintained replica sees no traffic before its check.
    """
    inflight = deque()
    records = []
    submitted = 0
    start_ns = time.perf_counter_ns()
    deadline = None if seconds is None else start_ns + int(seconds * 1e9)

    def complete():
        req, t0, ticket = inflight.popleft()
        try:
            result = ticket.result(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            raise
        except Exception:     # a failed request; counted, not fatal
            result = None
        t1 = time.perf_counter_ns()
        spans.request(req.index, t0, t1, result is not None)
        record = Record(index=req.index, images=req.x.shape[0],
                        temp_c=req.temp_c, malformed=req.malformed,
                        ok=result is not None, latency_s=(t1 - t0) / 1e9,
                        done_ns=t1)
        if result is not None:
            tel = result.telemetry
            record.queue_s = tel.queue_s
            record.round_trip_s = tel.wall_s
            record.replica = tel.replica
            if req.index in keep:
                record.x, record.logits = req.x, result.logits
        records.append(record)

    while True:
        while len(inflight) < W.OUTSTANDING and (
                deadline is None or time.perf_counter_ns() < deadline):
            req = next(requests, None)
            if req is None:
                break
            t0 = time.perf_counter_ns()
            inflight.append((req, t0, pool.submit(req.x,
                                                  temp_c=req.temp_c)))
            submitted += 1
            if fleet is not None and submitted % W.PROBE_EVERY == 0:
                while inflight:
                    complete()
                fleet.probe_and_maintain(pool, spans)
        if not inflight:
            break
        complete()
    end_ns = time.perf_counter_ns()
    return Phase(records, start_ns, end_ns)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def restored_unit(unit, mapping):
    """A MAC unit for ``mapping`` reusing ``unit``'s circuit calibration
    (no transients; the calibration does not depend on sigma or bits
    per cell)."""
    return BitSerialMacUnit(unit.design, BehavioralMacConfig(
        cells_per_row=mapping.cells_per_row, bits_x=mapping.bits,
        bits_w=mapping.bits, sigma_vth_fefet=mapping.sigma_vth_fefet,
        sigma_vth_mosfet=mapping.sigma_vth_mosfet, seed=mapping.seed,
        backend=mapping.backend, bits_per_cell=mapping.bits_per_cell),
        calibration=unit.calibration())


def reference_chip(model, design, unit):
    """Error-free reference: sigma=0, 1 bit per cell, read at 27 C."""
    mapping = MappingConfig(tile_rows=W.TILE_ROWS, tile_cols=W.TILE_COLS,
                            backend="fused", seed=W.MODEL_SEED)
    program = compile_model(model, design, mapping)
    return Chip(program, design, unit=restored_unit(unit, mapping))


def dense_oracles(workload, model, design, unit, n_replicas):
    """The served fleet rebuilt on the dense reference backend: same
    program, same per-replica variation draws."""
    program = compile_model(model, design, mapping_for(workload, "dense"))
    first = Chip(program, design, unit=unit)
    return Chip.build_replicas(program, design, n_replicas, first=first)


def logit_err(records, reference):
    """Mean relative L1 error of served logits against ``reference``."""
    errs = []
    for r in records:
        ref = reference.forward(r.x, temp_c=REFERENCE_TEMP_C)
        errs.append(float(np.abs(r.logits - ref).sum() / np.abs(ref).sum()))
    return statistics.fmean(errs) if errs else 0.0


# ----------------------------------------------------------------------
# host measurements
# ----------------------------------------------------------------------
def _proc_children():
    """Live child processes of this process, tracker helpers excluded."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if b"resource_tracker" in fh.read():
                    continue
        except (OSError, IndexError, ValueError):
            continue
        children.append(int(entry))
    return children


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def workers_peak_rss_mb():
    """Summed peak RSS of this process's live worker processes."""
    return sum(_vm_hwm_kb(pid) for pid in _proc_children()) / 1024.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """One bring-up and the timed traffic its pool served."""

    setup_s: float
    setup_window: tuple
    phase: Phase
    stats: object
    workers_rss_mb: float


def modeled(stats_list):
    """Simulated per-image energy and latency, and TOPS/W derated by the
    share of energy that went into maintenance rewrites."""
    images = max(sum(s.totals["images"] for s in stats_list), 1)
    reads = sum(s.modeled["energy_j"] for s in stats_list)
    writes = sum(s.modeled["write_energy_j"] for s in stats_list)
    serial = sum(s.modeled["serial_latency_s"] for s in stats_list)
    tops = stats_list[0].modeled["tops_per_watt"]
    return {"modeled_nj_per_img": reads / images * 1e9,
            "modeled_us_per_img": serial / images * 1e6,
            "modeled_tops_per_w": (tops * reads / (reads + writes)
                                   if reads + writes else tops)}


def run(workload, seed, seconds, *, import_s, recorder=None):
    """One run; returns the result document (see ``run.py``).

    The timed traffic is split over ``SETUP_REPEATS`` fresh bring-ups,
    so set-up is measured several times and no single pool's memory
    layout sets the figures.  With a recorder, a fourth, traced
    bring-up serves the second half of ``seconds``.
    """
    design = TwoTOneFeFETCell()
    model = build_model()
    traced = recorder is not None
    keep = W.sample_indices(seed)
    stream = W.request_stream(seed, workload)
    untraced_s = seconds / 2 if traced else seconds
    plan = ([(NO_SPANS, untraced_s / SETUP_REPEATS)] * SETUP_REPEATS
            + ([(recorder, seconds / 2)] if traced else []))
    segments, fleet, isolation = [], None, None
    for index, (spans, segment_s) in enumerate(plan):
        if spans is recorder:
            layers.install(recorder)
        t0 = time.perf_counter_ns()
        program, pool = bring_up(workload, design, model, spans=spans)
        t1 = time.perf_counter_ns()
        try:
            if workload.drift and fleet is None:
                probe = W.probe_images(seed)
                fresh = Chip(program, design, unit=pool.chips[0].unit)
                fleet = FleetLog(probe=probe, expected=fresh.forward(
                    probe, temp_c=REFERENCE_TEMP_C))
            phase = closed_loop(pool, stream, seconds=segment_s, keep=keep,
                                spans=spans, fleet=fleet)
            segments.append(Segment((t1 - t0) / 1e9, (t0, t1), phase,
                                    pool.stats(), workers_peak_rss_mb()))
            if index == len(plan) - 1:
                if workload.malformed_frac > 0:
                    isolation = closed_loop(
                        pool, iter(W.isolation_requests(seed, workload)),
                        spans=spans)
                if fleet is not None:
                    # Rewrite every replica once more so each run checks
                    # at least one maintain() against a fresh replica.
                    for replica in range(pool.n_replicas):
                        pool.maintain(replica)
                        fleet.verify(pool, replica)
        finally:
            pool.close()
            if spans is recorder:
                recorder.unpatch()
    untraced = segments[:SETUP_REPEATS]
    unit, meter = pool.chips[0].unit, pool.chips[0].meter

    # -- correctness ------------------------------------------------------
    ok_records = [r for seg in segments for r in seg.phase.ok]
    sampled = [r for r in ok_records if r.logits is not None]
    checks = {"sampled": len(sampled)}
    if fleet is not None:
        checks.update(maintain_checks=fleet.checks,
                      maintain_mismatches=fleet.mismatches)
        correct = fleet.checks > 0 and fleet.mismatches == 0
    else:
        oracles = dense_oracles(workload, model, design, unit, W.N_REPLICAS)
        mismatches = sum(
            1 for r in sampled
            if not np.array_equal(r.logits, oracles[r.replica].forward(
                r.x, temp_c=r.temp_c)))
        checks.update(dense_oracle_mismatches=mismatches)
        correct = bool(sampled) and mismatches == 0
    err = logit_err(sampled, reference_chip(model, design, unit))

    timed = [r for seg in segments for r in seg.phase.records]
    lat = latency_summary([r.latency_s for seg in untraced
                           for r in seg.phase.ok])
    lat["p50_ms"] = 1e3 * statistics.median(
        statistics.median(r.latency_s for r in slot)
        for seg in untraced for slot in seg.phase.windows()[0] if slot)
    # Medians over equal windows keep a burst of host interference in
    # one window, or one slow bring-up, out of the figures.
    throughput = statistics.median(rate for seg in untraced
                                   for rate in seg.phase.window_rates())
    setups = [seg.setup_s for seg in untraced]
    end_to_end = {
        "throughput_img_s": throughput,
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "failed_frac": (failed_frac([(r.malformed, r.ok)
                                     for r in isolation.records])
                        if isolation else 0.0),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": (self_peak_rss_mb()
                        + max(seg.workers_rss_mb for seg in segments)),
        "logit_err": err,
        **modeled([seg.stats for seg in untraced]),
    }
    doc = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(traced), "correct": correct, "checks": checks,
        "attempted": sum(1 for r in timed if not r.malformed),
        "failed": sum(1 for r in timed if not r.malformed and not r.ok),
        "end_to_end": end_to_end, "latency": lat, "setup_runs_s": setups,
        "import_s": import_s,
        "segment_throughput_img_s": [seg.phase.throughput_img_s
                                     for seg in segments],
        "isolation": None if isolation is None else {
            "requests": len(isolation.records),
            "malformed": sum(r.malformed for r in isolation.records),
            "wellformed_failed": sum(1 for r in isolation.records
                                     if not r.malformed and not r.ok)},
        "fleet": None if fleet is None else {
            "health_probes": fleet.probes, "maintains": fleet.maintains},
    }
    if traced:
        seg = segments[-1]
        doc["per_layer"] = layers.per_layer(
            recorder, setup_window=seg.setup_window, phase=seg.phase,
            stats=seg.stats, untraced_img_s=throughput, isolation=isolation,
            processes=workload.workers == "processes", meter=meter,
            logit_err=err)
        doc["trace_windows"] = {
            "set-up": seg.setup_window,
            "traffic": (seg.phase.start_ns, seg.phase.end_ns)}
    return doc
