"""Compile-and-serve front half: lower networks onto tiled CiM arrays.

Running a network on the CiM array involves three concerns — lowering
the network onto the array model, owning the programmed weights, and
running inference.  This package splits them along the hardware's own
seams:

* :func:`compile` (``repro.compiler.lowering.compile_model``) lowers
  Conv2D/Dense layers to matmuls, tiles each weight matrix onto
  fixed-geometry physical arrays per :class:`MappingConfig`, and emits an
  immutable :class:`CompiledProgram` (tile grids, partial-sum plans,
  quantization scales, content fingerprint);
* :class:`Chip` writes a program onto the array backends — per-tile
  variation draws, per-tile energy/latency metering — and executes it;
* :mod:`repro.serve` serves chips through the micro-batching,
  work-stealing :class:`~repro.serve.ChipPool` (an
  :class:`~repro.serve.InferenceSession` is its one-replica form).

Quick tour::

    from repro.compiler import MappingConfig, Chip, compile

    program = compile(model, design, MappingConfig(tile_rows=128,
                                                   tile_cols=128))
    chip = Chip(program, design)
    logits = chip.forward(images, temp_c=85.0)
    print(chip.meter.snapshot()["energy_j"])
"""

from repro.compiler.chip import Chip, ChipMeter, TileCounters
from repro.compiler.lowering import compile_model, layer_matmul_weights
from repro.compiler.mapping import (
    DEFAULT_TILE_COLS,
    DEFAULT_TILE_ROWS,
    MappingConfig,
)
from repro.compiler.program import CompiledProgram, LayerPlan, TileSpec

#: ``repro.compiler.compile`` is the public name of the lowering entry
#: point (module-local, so the builtin ``compile`` is untouched elsewhere).
compile = compile_model

__all__ = [
    "Chip",
    "ChipMeter",
    "CompiledProgram",
    "DEFAULT_TILE_COLS",
    "DEFAULT_TILE_ROWS",
    "LayerPlan",
    "MappingConfig",
    "TileCounters",
    "TileSpec",
    "compile",
    "compile_model",
    "layer_matmul_weights",
]
