"""The design-space autotuner: evaluate candidates, report the front.

Evaluation is the real serving stack, not a side model: every candidate
is compiled (:func:`repro.compiler.compile_model`), programmed onto a
chip (or a :class:`~repro.serve.ChipPool` replica fleet for
``n_replicas > 1``), and served a probe workload; scores come from the
chip meter / pool's modeled stats, priced through the component
estimator interface (:mod:`repro.tune.estimators`).  What makes a full
grid affordable:

* **Calibration sharing** — MAC-unit calibration (the circuit-level
  bring-up cost, seconds per config) depends only on the candidate's
  ``group_key()``; the evaluator calibrates once per group and reuses
  the unit for every member (the ``Chip(..., unit=)`` warm path).
* **Process-parallel groups** — groups are independent, so they fan out
  over :func:`repro.runtime.executor.pmap`.
* **Content-addressed score caching** — a candidate's score is a pure
  function of (knobs, workload, estimator, code version); re-runs and
  grid extensions only pay for new points
  (:class:`repro.tune.cache.ScoreCache`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.constants import REFERENCE_TEMP_C
from repro.tune.cache import ScoreCache, score_key
from repro.tune.pareto import DEFAULT_AXES, better_axes, pareto_front
from repro.tune.space import Candidate, TuneSpace, group_candidates

#: Estimator choices: paper-calibrated table vs. circuit-backed (one
#: batched MAC-ladder calibration per row-width group).
ESTIMATORS = ("table", "circuit")


@dataclass(frozen=True)
class TuneWorkload:
    """The evaluation workload every candidate is scored against."""

    width: int = 4
    image_size: int = 8
    n_probe: int = 8
    temps_c: Tuple[float, ...] = (REFERENCE_TEMP_C,)
    bits: int = 8
    sigma_vth_fefet: float = 0.0
    sigma_vth_mosfet: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "temps_c",
                           tuple(float(t) for t in self.temps_c))
        if self.n_probe < 1:
            raise ValueError("need at least one probe image")
        if not self.temps_c:
            raise ValueError("need at least one evaluation temperature")

    def fingerprint_data(self):
        return {
            "width": self.width,
            "image_size": self.image_size,
            "n_probe": self.n_probe,
            "temps_c": list(self.temps_c),
            "bits": self.bits,
            "sigma_vth_fefet": self.sigma_vth_fefet,
            "sigma_vth_mosfet": self.sigma_vth_mosfet,
            "seed": self.seed,
        }

    def base_mapping(self):
        """The hand-picked default mapping this workload's non-searched
        knobs ride on — also the tuner's incumbent to beat."""
        from repro.compiler import MappingConfig

        return MappingConfig(bits=self.bits,
                             sigma_vth_fefet=self.sigma_vth_fefet,
                             sigma_vth_mosfet=self.sigma_vth_mosfet,
                             seed=self.seed)

    def build(self):
        """``(design, model, images, float_pred)`` — same conventions as
        the ``infer`` serving experiment, so scores are comparable."""
        from repro.cells import TwoTOneFeFETCell
        from repro.nn import build_vgg_nano

        design = TwoTOneFeFETCell()
        model = build_vgg_nano(width=self.width,
                               image_size=self.image_size,
                               rng=np.random.default_rng(self.seed + 1))
        rng = np.random.default_rng(self.seed)
        images = rng.normal(size=(self.n_probe, self.image_size,
                                  self.image_size, 3))
        float_pred = np.argmax(model.predict(images), axis=1)
        return design, model, images, float_pred


@dataclass(frozen=True)
class TuneObjective:
    """Scalar objective + feasibility floors over the Pareto axes."""

    metric: str = "tops_per_watt"
    maximize: bool = True
    min_accuracy: Optional[float] = None
    min_throughput_img_per_s: Optional[float] = None
    max_latency_s_per_image: Optional[float] = None

    def violations(self, score):
        """Human-readable floor violations for one score (empty = ok)."""
        out = []
        if (self.min_accuracy is not None
                and score["accuracy"] < self.min_accuracy):
            out.append(f"accuracy {score['accuracy']:.3f} < "
                       f"{self.min_accuracy:.3f}")
        if (self.min_throughput_img_per_s is not None
                and score["throughput_img_per_s"]
                < self.min_throughput_img_per_s):
            out.append(
                f"throughput {score['throughput_img_per_s']:.3g} img/s < "
                f"{self.min_throughput_img_per_s:.3g}")
        if (self.max_latency_s_per_image is not None
                and score["latency_s_per_image"]
                > self.max_latency_s_per_image):
            out.append(
                f"latency {score['latency_s_per_image']:.3g} s/img > "
                f"{self.max_latency_s_per_image:.3g}")
        return out

    def value(self, score):
        return score[self.metric]

    def key(self, score):
        """Sort key: feasible-first is handled by the caller; within the
        feasible set higher is better (sign-normalized)."""
        v = self.value(score)
        return v if self.maximize else -v

    def to_dict(self):
        return {
            "metric": self.metric,
            "maximize": self.maximize,
            "min_accuracy": self.min_accuracy,
            "min_throughput_img_per_s": self.min_throughput_img_per_s,
            "max_latency_s_per_image": self.max_latency_s_per_image,
        }


def program_area_cells(program, mapping):
    """``(allocated, used)`` physical cell counts for a program.

    Allocated counts full ``tile_rows x tile_cols`` arrays per stored
    plane — ragged edge tiles pad up to the physical geometry, which is
    exactly how oversized tiles waste silicon; used counts only cells
    holding weight codes.  This is geometry's Pareto axis: modeled
    energy/latency are tiling-invariant (row ops count *fired* rows),
    but allocation is not.
    """
    alloc = used = 0
    for plan in program.layers:
        planes = len(plan.planes)
        for tile in plan.tiles:
            k, n = tile.shape
            phys_rows = mapping.tile_rows if mapping.tile_rows else k
            phys_cols = mapping.tile_cols if mapping.tile_cols else n
            alloc += phys_rows * phys_cols * planes
            used += k * n * planes
    return alloc, used


def _accuracy_rows(logits_by_temp, float_pred):
    """Per-temperature argmax agreement with the float model."""
    per_temp = {}
    for temp, logits in logits_by_temp.items():
        pred = np.argmax(logits, axis=1)
        per_temp[float(temp)] = float(np.mean(pred == float_pred))
    return per_temp


def evaluate_candidate(candidate, workload, *, design, model, images,
                       float_pred, estimator="table", unit=None,
                       energy_report=None):
    """Score one candidate on the real serving stack.

    Returns ``(score, unit)`` where ``unit`` is the candidate's
    calibrated MAC unit, reusable by any candidate with the same
    ``group_key()``.  ``energy_report`` supplies circuit-measured
    pricing (from :class:`~repro.tune.estimators.CircuitMacEstimator`);
    ``None`` prices with the paper-calibrated table.
    """
    from repro.compiler import Chip, compile_model

    mapping = candidate.mapping
    started = time.perf_counter()
    program = compile_model(model, design, mapping)
    chip = Chip(program, design, unit=unit,
                estimator=(energy_report.estimator()
                           if energy_report is not None else None))
    images_total = workload.n_probe * len(workload.temps_c)

    logits_by_temp = {}
    if candidate.n_replicas == 1:
        for temp in workload.temps_c:
            logits_by_temp[temp] = chip.forward(images, temp_c=temp)
        snap = chip.meter.snapshot()
        energy_j = snap["energy_j"]
        serial_latency_s = snap["latency_s"]
        makespan_s = serial_latency_s
        tops_pw = snap["tops_per_watt"]
        row_ops = snap["row_ops"]
        parallel_speedup = 1.0
    else:
        from repro.serve import ChipPool

        chips = Chip.build_replicas(program, design, candidate.n_replicas,
                                    first=chip)
        pool = ChipPool(program, design, n_replicas=candidate.n_replicas,
                        temp_bins=candidate.temp_bins, max_batch_size=1,
                        autostart=False, chips=chips)
        with pool as server:
            for temp in workload.temps_c:
                tickets = [server.submit(images[i:i + 1],
                                         temp_c=float(temp))
                           for i in range(workload.n_probe)]
                while server.step():
                    pass
                results = [t.result(timeout=60.0) for t in tickets]
                logits_by_temp[temp] = np.concatenate(
                    [r.logits for r in results])
            stats = server.stats()
        modeled = stats.modeled
        energy_j = modeled["energy_j"]
        serial_latency_s = modeled["serial_latency_s"]
        makespan_s = modeled["makespan_s"]
        tops_pw = modeled["tops_per_watt"]
        row_ops = sum(c.meter.row_ops for c in chips)
        parallel_speedup = modeled["parallel_speedup"]

    per_temp = _accuracy_rows(logits_by_temp, float_pred)
    area_alloc, area_used = program_area_cells(program, mapping)
    score = {
        "candidate": dict(candidate.knobs(),
                          fingerprint=candidate.fingerprint(),
                          label=candidate.label()),
        "estimator": estimator,
        # Pareto axes -------------------------------------------------
        "tops_per_watt": float(tops_pw),
        "energy_nj_per_image": float(energy_j / images_total * 1e9),
        "latency_s_per_image": float(serial_latency_s / images_total),
        "throughput_img_per_s": float(
            images_total / makespan_s if makespan_s > 0 else 0.0),
        "accuracy": float(min(per_temp.values())),
        "area_cells": int(area_alloc),
        # Supporting detail -------------------------------------------
        "accuracy_per_temp": per_temp,
        "area_cells_used": int(area_used),
        "utilization": float(area_used / area_alloc) if area_alloc else 0.0,
        "energy_j": float(energy_j),
        "row_ops": int(row_ops),
        "row_ops_per_image": float(row_ops / images_total),
        "makespan_s": float(makespan_s),
        "modeled_parallel_speedup": float(parallel_speedup),
        "n_tiles": int(program.n_tiles),
        "wall_eval_s": float(time.perf_counter() - started),
    }
    return score, chip.unit


def _rebuild_candidate(data):
    """Candidate from its ``fingerprint_data()`` (crosses process pools)."""
    from repro.compiler import MappingConfig

    bins = data["temp_bins"]
    return Candidate(MappingConfig(**data["mapping"]),
                     data["n_replicas"],
                     tuple(bins) if bins is not None else None)


def _evaluate_group(payload):
    """Process-pool entry: score one calibration group's candidates.

    One MAC-unit calibration (and, for the circuit estimator, one MAC
    ladder) serves every candidate in the group; returns score dicts in
    group order.
    """
    workload_data, candidate_data, estimator = payload
    workload = TuneWorkload(**{**workload_data,
                               "temps_c": tuple(workload_data["temps_c"])})
    candidates = [_rebuild_candidate(d) for d in candidate_data]
    design, model, images, float_pred = workload.build()

    energy_report = None
    if estimator == "circuit":
        from repro.tune.estimators import CircuitMacEstimator

        first = candidates[0].mapping
        energy_report = CircuitMacEstimator(
            design, workload.temps_c,
            n_cells=first.cells_per_row,
            bits_per_cell=first.bits_per_cell).energy_report()

    scores, unit = [], None
    for cand in candidates:
        score, unit = evaluate_candidate(
            cand, workload, design=design, model=model, images=images,
            float_pred=float_pred, estimator=estimator, unit=unit,
            energy_report=energy_report)
        scores.append(score)
    return scores


@dataclass
class TuneResult:
    """Everything a tuning run decided, plus how it got there."""

    scores: list
    front: list
    best: Optional[dict]
    default: dict
    objective: TuneObjective
    workload: TuneWorkload
    space: TuneSpace
    estimator: str
    dropped: list
    cache_hits: int
    wall_s: float

    def to_dict(self):
        return {
            "objective": self.objective.to_dict(),
            "workload": self.workload.fingerprint_data(),
            "space": self.space.to_dict(),
            "estimator": self.estimator,
            "n_candidates": len(self.scores),
            "n_front": len(self.front),
            "cache_hits": self.cache_hits,
            "dropped": [{"knobs": k, "reason": r} for k, r in self.dropped],
            "default": self.default,
            "best": self.best,
            "front": [s["candidate"]["fingerprint"] for s in self.front],
            "scores": self.scores,
            "wall_s": self.wall_s,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- reporting -------------------------------------------------------
    _COLUMNS = (
        ("tops_per_watt", "TOPS/W", "{:.0f}"),
        ("energy_nj_per_image", "nJ/img", "{:.3g}"),
        ("latency_s_per_image", "s/img", "{:.3g}"),
        ("throughput_img_per_s", "img/s", "{:.3g}"),
        ("accuracy", "acc", "{:.3f}"),
        ("area_cells", "cells", "{:d}"),
    )

    def _table_rows(self, scores):
        rows = []
        for s in scores:
            marks = []
            if s["candidate"]["fingerprint"] \
                    == self.default["candidate"]["fingerprint"]:
                marks.append("default")
            if self.best is not None and s["candidate"]["fingerprint"] \
                    == self.best["candidate"]["fingerprint"]:
                marks.append("chosen")
            row = [s["candidate"]["label"] + (
                " (" + ",".join(marks) + ")" if marks else "")]
            for metric, _, fmt in self._COLUMNS:
                row.append(fmt.format(s[metric]))
            row.append(",".join(s["beats_default_on"]) or "-")
            rows.append(row)
        return rows

    def markdown(self):
        """The run as a markdown report (front table + chosen config)."""
        header = (["candidate"] + [h for _, h, _ in self._COLUMNS]
                  + ["beats default on"])
        lines = ["# Design-space tuning", ""]
        lines.append(
            f"Objective: **{'max' if self.objective.maximize else 'min'} "
            f"{self.objective.metric}**"
            + (f", floors: {self._floors_text()}"
               if self._floors_text() else "")
            + f" — estimator `{self.estimator}`, "
              f"{len(self.scores)} candidates "
              f"({self.cache_hits} cached), "
              f"{len(self.front)} on the Pareto front, "
              f"{self.wall_s:.1f}s wall.")
        lines.append("")
        lines.append("## Pareto front")
        lines.append("")
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in self._table_rows(self.front):
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        if self.best is not None:
            lines.append("## Chosen configuration")
            lines.append("")
            lines.append("```json")
            lines.append(json.dumps(self.best["candidate"], indent=2,
                                    sort_keys=True))
            lines.append("```")
        else:
            lines.append("## No feasible configuration")
            lines.append("")
            lines.append("Every candidate violated at least one floor; "
                         "the front above is reported unfiltered.")
        if self.dropped:
            lines.append("")
            lines.append(f"{len(self.dropped)} grid combinations were "
                         f"pruned as invalid (not evaluated).")
        lines.append("")
        return "\n".join(lines)

    def _floors_text(self):
        parts = []
        if self.objective.min_accuracy is not None:
            parts.append(f"acc >= {self.objective.min_accuracy}")
        if self.objective.min_throughput_img_per_s is not None:
            parts.append(
                f"img/s >= {self.objective.min_throughput_img_per_s}")
        if self.objective.max_latency_s_per_image is not None:
            parts.append(
                f"s/img <= {self.objective.max_latency_s_per_image}")
        return ", ".join(parts)

    def report(self):
        """Plain-text summary for the CLI."""
        header = (["candidate"] + [h for _, h, _ in self._COLUMNS]
                  + ["beats default on"])
        rows = self._table_rows(self.front)
        widths = [max(len(header[i]), *(len(r[i]) for r in rows))
                  for i in range(len(header))]
        lines = [f"tune: {len(self.scores)} candidates "
                 f"({self.cache_hits} cached), {len(self.front)} on the "
                 f"front, {self.wall_s:.1f}s"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(c.ljust(w)
                                   for c, w in zip(row, widths)))
        if self.best is not None:
            lines.append(f"chosen: {self.best['candidate']['label']} "
                         f"({self.objective.metric} = "
                         f"{self.best[self.objective.metric]:.4g})")
        else:
            lines.append("chosen: none feasible")
        return "\n".join(lines)


def tune(space=None, workload=None, objective=None, *, estimator="table",
         parallel=1, use_cache=True, cache_dir=None, axes=DEFAULT_AXES,
         progress=None) -> TuneResult:
    """Search the design space; return scores, front, and chosen config.

    ``parallel`` fans calibration groups over a process pool;
    ``use_cache`` serves previously-scored candidates from the
    content-addressed score cache.  ``progress`` is an optional callable
    receiving one status string per phase (the CLI passes ``print``).
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, "
                         f"got {estimator!r}")
    space = space or TuneSpace()
    workload = workload or TuneWorkload()
    objective = objective or TuneObjective()
    say = progress or (lambda msg: None)
    started = time.perf_counter()

    base = workload.base_mapping()
    candidates, dropped = space.expand(base)
    # The incumbent is always evaluated, even when the grid misses it —
    # "beats the default" must never be vacuous.
    default_cand = Candidate(base)
    if not any(c.fingerprint() == default_cand.fingerprint()
               for c in candidates):
        candidates.insert(0, default_cand)
    say(f"tune: {len(candidates)} candidates "
        f"({len(dropped)} pruned), estimator={estimator}")

    workload_data = workload.fingerprint_data()
    cache = ScoreCache(cache_dir) if use_cache else None
    by_key = {}
    pending = []
    cache_hits = 0
    for cand in candidates:
        if cache is not None:
            hit = cache.get(score_key(cand, workload_data, estimator))
            if hit is not None:
                by_key[cand.fingerprint()] = hit
                cache_hits += 1
                continue
        pending.append(cand)
    if cache_hits:
        say(f"tune: {cache_hits} scores from cache, "
            f"{len(pending)} to evaluate")

    groups = group_candidates(pending)
    payloads = [(workload_data, [c.fingerprint_data() for c in members],
                 estimator)
                for members in groups.values()]
    if payloads:
        say(f"tune: evaluating {len(pending)} candidates in "
            f"{len(payloads)} calibration groups "
            f"(parallel={parallel})")
    from repro.runtime.executor import pmap

    for members, scores in zip(groups.values(),
                               pmap(_evaluate_group, payloads,
                                    parallel=parallel)):
        for cand, score in zip(members, scores):
            by_key[cand.fingerprint()] = score
            if cache is not None:
                cache.put(score_key(cand, workload_data, estimator), score)

    scores = [by_key[c.fingerprint()] for c in candidates]
    default_score = by_key[default_cand.fingerprint()]

    # Annotate: feasibility, dominance, default comparison.
    front_ids = {id(s) for s in pareto_front(scores, axes)}
    for score in scores:
        score["violations"] = objective.violations(score)
        score["feasible"] = not score["violations"]
        score["on_front"] = id(score) in front_ids
        score["objective_value"] = objective.value(score)
        score["beats_default_on"] = better_axes(score, default_score, axes)
        score["worse_than_default_on"] = better_axes(default_score, score,
                                                     axes)
        score["is_default"] = score is default_score

    feasible = [s for s in scores if s["feasible"]]
    best = None
    if feasible:
        # Ties on the objective resolve toward the Pareto front (a
        # dominated twin should never be chosen over its dominator),
        # then toward accuracy, then toward lower energy.
        best = max(feasible,
                   key=lambda s: (objective.key(s), s["on_front"],
                                  s["accuracy"],
                                  -s["energy_nj_per_image"]))
    front = [s for s in scores if s["on_front"]]
    result = TuneResult(
        scores=scores, front=front, best=best, default=default_score,
        objective=objective, workload=workload, space=space,
        estimator=estimator, dropped=dropped, cache_hits=cache_hits,
        wall_s=time.perf_counter() - started)
    say(f"tune: done in {result.wall_s:.1f}s — {len(front)} on the "
        f"front, chosen: "
        + (best["candidate"]["label"] if best else "none feasible"))
    return result
