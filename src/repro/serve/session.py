"""``InferenceSession`` — the serving surface over one programmed chip.

A session is a one-replica :class:`~repro.serve.pool.ChipPool`: the
pool's queue, linger loop, :meth:`step` pump, close and totals serve the
chip, and the session keeps the single-chip request surface.

* **Micro-batching.**  Requests enqueue; the worker drains them in
  micro-batches of up to ``max_batch_size`` images, concatenating the
  image tensors so one tiled forward pass serves many requests.
  Activation quantization stays request-local, so a batched request
  returns exactly the logits of its own ``chip.forward``.
* **Per-request temperature.**  A request may override ``temp_c``; only
  requests at the same (canonicalized) operating temperature share a
  batch — programmed tiles are weight-stationary, levels drift with the
  override, the stored weights do not.
* **Telemetry.**  Every result carries a
  :class:`~repro.serve.batching.RequestTelemetry`; :meth:`stats`
  aggregates the session totals.

Threading model: any number of producer threads call :meth:`submit` /
:meth:`infer`; exactly one worker thread executes the chip.
``autostart=False`` runs without a thread — the caller pumps
micro-batches with :meth:`step` (deterministic batch shapes for
benchmarks and tests).
"""

from __future__ import annotations

from repro.serve.batching import InferenceResult, InferenceTicket
from repro.serve.pool import ChipPool


class InferenceSession:
    """Thread-safe micro-batched inference over one programmed chip."""

    def __init__(self, chip, *, max_batch_size=64, linger_s=0.002,
                 autostart=True):
        self.chip = chip
        self._pool = ChipPool(chip.program, chip.design, chips=[chip],
                              max_batch_size=max_batch_size,
                              linger_s=linger_s, autostart=autostart)

    @classmethod
    def from_artifact(cls, store, fingerprint, *, design=None,
                      check_code_version=True, **kwargs):
        """A session over a chip restored from the compiled-artifact
        store — warm bring-up with no compilation or calibration; the
        served logits are bit-identical to the chip that was saved.
        ``kwargs`` pass through to the session constructor."""
        chip = store.load_chip(fingerprint, design=design,
                               check_code_version=check_code_version)
        return cls(chip, **kwargs)

    def submit(self, x, temp_c=None) -> InferenceTicket:
        """Enqueue a request; returns a ticket resolving to its result.

        ``x`` is one request's image tensor (N, H, W, C) or feature matrix
        (N, F); ``temp_c`` overrides the mapping's operating temperature
        for this request only.
        """
        return self._pool.submit(x, temp_c=temp_c)

    def infer(self, x, temp_c=None) -> InferenceResult:
        """Submit and wait; with ``autostart=False`` the caller's thread
        pumps the queue itself."""
        return self._pool.infer(x, temp_c=temp_c)

    def step(self):
        """Serve one micro-batch synchronously; returns the number of
        requests served (0 when the queue is empty)."""
        return self._pool.step()

    def close(self):
        """Stop accepting requests; every queued request is still served."""
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def stats(self):
        """Aggregate session telemetry (JSON-safe)."""
        stats = self._pool.stats()
        totals = stats.totals
        return {
            "requests": totals["requests"],
            "images": totals["images"],
            "batches": totals["batches"],
            "mean_batch_images": stats.replicas[0]["mean_batch_images"],
            "mean_queue_s": totals["mean_queue_s"],
            "busy_s": totals["busy_s"],
            "throughput_img_per_s": totals["throughput_img_per_s"],
            "modeled_energy_j": stats.modeled["energy_j"],
            "modeled_latency_s": stats.modeled["serial_latency_s"],
        }
