"""repro: temperature-resilient subthreshold-FeFET compute-in-memory.

A behavioral, laptop-scale reproduction of

    Zhou et al., "Low Power and Temperature-Resilient Compute-In-Memory
    Based on Subthreshold-FeFET", DATE 2024 (arXiv:2312.17442).

Layer map (bottom-up):

* :mod:`repro.devices`  - EKV MOSFET, Preisach FeFET, variation sampling.
* :mod:`repro.circuit`  - MNA engine: DC Newton solve + transient (the
  Spectre substitute).
* :mod:`repro.cells`    - 1FeFET-1R / 1FeFET-1T baselines, proposed
  2T-1FeFET cell; circuit-level and calibrated behavioral twins.
* :mod:`repro.array`    - MAC rows, charge-sharing sensing, bit-serial MACs,
  energy/latency accounting.
* :mod:`repro.metrics`  - fluctuation, Noise-Margin-Rate, TOPS/W.
* :mod:`repro.nn`       - numpy NN framework + VGG + CiM-lowered inference.
* :mod:`repro.compiler` - compile-and-serve front half: ``compile()``
  lowers networks onto fixed-geometry tiled arrays
  (:class:`~repro.compiler.mapping.MappingConfig`), emitting immutable
  :class:`~repro.compiler.program.CompiledProgram` objects that
  :class:`~repro.compiler.chip.Chip` programs and meters.
* :mod:`repro.serve`    - batched serving: the work-stealing
  :class:`~repro.serve.pool.ChipPool` over chip replicas, with
  per-request temperature overrides and telemetry, and its one-replica
  form :class:`~repro.serve.session.InferenceSession`.
* :mod:`repro.analysis` - experiment implementations (one per paper
  figure/table) plus Monte-Carlo and Table-II machinery.
* :mod:`repro.runtime`  - the unified experiment runtime: ``@experiment``
  registry, typed :class:`~repro.runtime.context.RunContext`,
  :class:`~repro.runtime.results.ExperimentResult` with JSON export,
  content-addressed result cache, and the cache-aware process-pool
  executor with Monte-Carlo/temperature sharding.

The CLI (``python -m repro`` / the ``repro`` console script) sits on top of
:mod:`repro.runtime`; see README.md for the run/cache/JSON workflow.
"""

from repro.constants import (
    REFERENCE_TEMP_C,
    TEMP_WINDOW_C,
    UPPER_TEMP_WINDOW_C,
    temperature_grid,
    thermal_voltage,
)

__version__ = "1.1.0"

__all__ = [
    "REFERENCE_TEMP_C",
    "TEMP_WINDOW_C",
    "UPPER_TEMP_WINDOW_C",
    "temperature_grid",
    "thermal_voltage",
    "__version__",
]
