"""Workload definitions and the seeded request streams.

Pure numpy: nothing here touches ``repro``, so the stream rules are
testable without building a chip.  Every workload serves the reduced VGG
of :func:`repro.serve.build_serving_workload` (width 4, 8x8 images) from
a fixed model seed; ``--seed`` only chooses the requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

MODEL_WIDTH = 4
IMAGE_SIZE = 8
MODEL_SEED = 0
TILE_ROWS = 32
TILE_COLS = 16
N_REPLICAS = 2
MAX_IMAGES_PER_REQUEST = 4
#: Requests the closed-loop generator keeps in flight.
OUTSTANDING = 8
MAX_BATCH_SIZE = 16
#: Drift workloads run a health probe (and maintenance) every this many
#: submitted requests.
PROBE_EVERY = 64

# Salts keep the phases' streams independent for one seed.
_TIMED, _ISOLATION, _SAMPLE, _PROBE = 1, 2, 3, 4


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the chip configuration it is served on."""

    name: str
    why: str
    bits_per_cell: int
    sigma_vth_fefet: float
    #: ChipPool execution substrate: "threads" or "processes".
    workers: str
    #: Operating temperatures requests draw from, uniformly.
    temps: tuple
    temp_bins: Optional[tuple] = None
    #: Share of the isolation-phase requests that carry a non-finite
    #: activation (0 skips the isolation phase).
    malformed_frac: float = 0.0
    #: Accelerated retention drift plus health probes and maintenance.
    drift: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="serve-nominal",
        why="1-bit sigma=0 chip, threaded 2-replica pool, 0-85 C traffic: "
            "nominal LUT decode dominates, the exact-decode fast path "
            "should move it",
        bits_per_cell=1, sigma_vth_fefet=0.0, workers="threads",
        temps=(0.0, 27.0, 55.0, 85.0), malformed_frac=0.02),
    Workload(
        name="serve-variation",
        why="same traffic at sigma_VTH=54 mV: explicit float decode, an "
            "exact-decode fast path must leave it unchanged",
        bits_per_cell=1, sigma_vth_fefet=0.054, workers="threads",
        temps=(0.0, 27.0, 55.0, 85.0), malformed_frac=0.02),
    Workload(
        name="fleet-drift-mlc",
        why="2-bit cells on process workers with retention drift, health "
            "probes and maintain() rewrites: writes beside reads, per-"
            "(temp, retention) LUTs and pipe IPC",
        bits_per_cell=2, sigma_vth_fefet=0.0, workers="processes",
        temps=(0.0, 27.0, 85.0), temp_bins=(56.0,), drift=True),
)}


@dataclass(frozen=True)
class Request:
    """One generated request: images, temperature, and whether it is
    deliberately malformed (a non-finite activation)."""

    index: int
    x: np.ndarray
    temp_c: float
    malformed: bool = False


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def _draw(rng, workload, index):
    images = int(rng.integers(1, MAX_IMAGES_PER_REQUEST + 1))
    temp = float(workload.temps[int(rng.integers(len(workload.temps)))])
    x = rng.normal(size=(images, IMAGE_SIZE, IMAGE_SIZE, 3))
    return Request(index, x, temp)


def request_stream(seed, workload):
    """Endless stream of well-formed requests for the timed phase.

    The same seed always yields the same sequence, however fast the
    program consumes it.
    """
    rng = _rng(seed, _TIMED)
    index = 0
    while True:
        yield _draw(rng, workload, index)
        index += 1


def isolation_requests(seed, workload, n=50):
    """A finite mix with ``malformed_frac`` of requests made non-finite.

    At least one request is malformed whenever the share is non-zero.
    The poisoned value (NaN, +inf or -inf) and its position are seeded.
    """
    rng = _rng(seed, _ISOLATION)
    requests = [_draw(rng, workload, i) for i in range(n)]
    if workload.malformed_frac <= 0:
        return requests
    n_bad = max(1, round(n * workload.malformed_frac))
    for i in sorted(rng.choice(n, size=n_bad, replace=False)):
        x = requests[i].x.copy()
        flat = int(rng.integers(x.size))
        x.flat[flat] = (np.nan, np.inf, -np.inf)[int(rng.integers(3))]
        requests[i] = Request(requests[i].index, x, requests[i].temp_c,
                              malformed=True)
    return requests


def sample_indices(seed, population=128, k=16):
    """Seeded request indices whose logits the correctness check keeps."""
    return frozenset(int(i) for i in _rng(seed, _SAMPLE).choice(
        population, size=k, replace=False))


def probe_images(seed, n=4):
    """Fixed images for fleet health probes and maintenance checks."""
    return _rng(seed, _PROBE).normal(size=(n, IMAGE_SIZE, IMAGE_SIZE, 3))
