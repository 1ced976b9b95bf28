"""Pure summary rules: tail percentile and failure share."""

from __future__ import annotations

import numpy as np

#: Percentile rungs in basis points (50, 90, 99, 99.9, 99.99 %).  Decade
#: rungs keep the chosen rung fixed across runs of similar length.
TAIL_LADDER_BP = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it.

    Samples beyond percentile ``p`` of ``n`` are ``n * (1 - p/100)``;
    integer arithmetic keeps the rule exact at the rung boundaries.
    Returns ``None`` when even the median has fewer than ten beyond.
    """
    best = None
    for bp in TAIL_LADDER_BP:
        if n * (10000 - bp) >= MIN_BEYOND * 10000:
            best = bp
    return None if best is None else best / 100.0


def latency_summary(latencies_s):
    """p50 and tail latency in ms, with the tail rung and sample count."""
    lat_ms = np.asarray(latencies_s, dtype=float) * 1e3
    n = int(lat_ms.size)
    if n == 0:
        raise ValueError("no successful requests to summarize")
    pct = tail_percentile(n)
    if pct is None:
        pct, tail = 100.0, float(lat_ms.max())
    else:
        tail = float(np.percentile(lat_ms, pct))
    return {"p50_ms": float(np.percentile(lat_ms, 50)), "tail_ms": tail,
            "tail_percentile": pct, "samples": n,
            "beyond": int(round(n * (100.0 - pct) / 100.0))}


def failed_frac(records):
    """Well-formed failures over well-formed requests.

    ``records`` are ``(malformed, ok)`` pairs.  Malformed requests are
    expected to fail, so they leave both counts.
    """
    wellformed = [ok for malformed, ok in records if not malformed]
    if not wellformed:
        return 0.0
    return sum(1 for ok in wellformed if not ok) / len(wellformed)

