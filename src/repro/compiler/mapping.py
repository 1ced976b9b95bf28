"""Mapping configuration: how a network is lowered onto physical arrays.

The paper evaluates VGG-8 by executing every Conv/Dense MAC on
fixed-geometry subthreshold-FeFET arrays; :class:`MappingConfig` captures
that geometry plus the quantization and variation knobs.  One immutable
object describes a mapping end to end and produces a stable fingerprint,
so a compiled program can participate in the runtime's content-addressed
result cache (mapping knobs travel through ``RunContext.params`` into the
cache key).

Geometry
--------
``tile_rows x tile_cols`` is the physical array a single tile occupies:
``tile_rows`` word lines (the matmul K dimension) by ``tile_cols`` output
columns (N).  A weight matrix larger than one tile is split into a grid of
tiles with partial-sum accumulation across row blocks — the standard
multi-array CiM mapping (TReCiM and the charge-domain FeFET macros use the
same scheme).  ``None`` for either dimension means "span the layer", which
reproduces the seed's single unbounded logical array.

``tile_rows`` must be a whole number of row chunks (``cells_per_row``
cells each): a physical array holds whole rows, and chunk-aligned tiling
is also what keeps a tiled program bit-identical to the spanning array
(the ADC decodes per chunk, so splitting between chunks never changes any
decode input).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

from repro.array.backend import validate_backend_name
from repro.constants import REFERENCE_TEMP_C

#: Default physical array geometry: 128 word lines x 128 columns (16 row
#: chunks of the paper's 8-cell rows) — the array scale of the paper's
#: system evaluation, and small enough that every Table-I VGG layer maps
#: onto a multi-tile grid.
DEFAULT_TILE_ROWS = 128
DEFAULT_TILE_COLS = 128


@dataclass(frozen=True)
class MappingConfig:
    """How to lower a network onto fixed-geometry CiM arrays."""

    #: Word lines per physical tile (matmul K dimension); ``None`` spans
    #: the whole layer (the legacy single-array mapping).
    tile_rows: Optional[int] = DEFAULT_TILE_ROWS
    #: Output columns per physical tile (matmul N dimension); ``None``
    #: spans the layer.
    tile_cols: Optional[int] = DEFAULT_TILE_COLS
    #: Wordlength for both weights and activations (the paper's 8 bits).
    bits: int = 8
    #: Default operating temperature; per-request overrides ride on the
    #: programmed tiles (levels drift, stored weights do not).
    temp_c: float = REFERENCE_TEMP_C
    #: Per-cell threshold-variation sigmas; tiles draw independently, so
    #: every tile is its own die region.
    sigma_vth_fefet: float = 0.0
    sigma_vth_mosfet: float = 0.0
    #: Seed for the per-tile variation draws (consumed in tile order).
    seed: int = 0
    #: Layers with fewer weights than this stay in float (digital).
    min_macs_for_cim: int = 0
    #: Array backend executing the programmed tiles.
    backend: str = "fused"
    #: Cells per row chunk (the paper's 8); tile_rows must divide into
    #: whole chunks.
    cells_per_row: int = 8
    #: Magnitude bits stored per cell (MLC weight encoding): ``b`` packs
    #: the ``bits - 1`` weight magnitude bits into ``ceil((bits-1)/b)``
    #: digit planes, a direct BLAS-pass reduction in the fused backend.
    #: ``1`` is the seed's binary cell, bit-identical on every backend.
    bits_per_cell: int = 1

    def __post_init__(self):
        validate_backend_name(self.backend)
        if not 2 <= self.bits <= 16:
            raise ValueError(f"unsupported wordlength {self.bits}")
        if self.cells_per_row < 1:
            raise ValueError("cells_per_row must be positive")
        if not 1 <= self.bits_per_cell <= 4:
            # The ADC ladder has cells_per_row * (2^b - 1) + 1 levels;
            # past 4 bits/cell adjacent levels collapse below the
            # charge-sharing sensor's resolution for any real cell.
            raise ValueError(
                f"bits_per_cell must be in [1, 4], got {self.bits_per_cell}")
        for name, value in (("tile_rows", self.tile_rows),
                            ("tile_cols", self.tile_cols)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive or None, "
                                 f"got {value}")
        if (self.tile_rows is not None
                and self.tile_rows % self.cells_per_row):
            raise ValueError(
                f"tile_rows={self.tile_rows} is not a whole number of "
                f"{self.cells_per_row}-cell row chunks; physical arrays "
                f"hold whole chunks (and chunk-aligned tiles are what "
                f"keeps tiled decodes bit-identical to a spanning array)")

    # -- derived ---------------------------------------------------------
    @property
    def spans_layers(self):
        """True for the legacy mapping: one unbounded tile per layer."""
        return self.tile_rows is None and self.tile_cols is None

    @staticmethod
    def _block_edges(total, block):
        """Half-open block boundaries covering ``[0, total)``."""
        edges = list(range(0, total, block)) + [total]
        return list(zip(edges[:-1], edges[1:]))

    def row_blocks(self, k):
        """Half-open K-dimension tile boundaries for a layer of ``k`` rows."""
        return self._block_edges(k, self.tile_rows or k)

    def col_blocks(self, n):
        """Half-open N-dimension tile boundaries for ``n`` output columns."""
        return self._block_edges(n, self.tile_cols or n)

    def grid_for(self, k, n):
        """Tile-grid shape ``(row_blocks, col_blocks)`` for a (K, N) layer."""
        return (len(self.row_blocks(k)), len(self.col_blocks(n)))

    def with_overrides(self, **changes):
        """A copy with ``changes`` applied (dataclasses.replace wrapper)."""
        return replace(self, **changes)

    def candidate(self, **changes):
        """``(mapping, None)`` or ``(None, reason)`` for an override set.

        The design-space tuner enumerates raw knob grids; combinations
        the constructor rejects (tile_rows not a whole number of row
        chunks, out-of-range ``bits_per_cell``, ...) are pruned with the
        constructor's own message instead of duplicating the validation
        rules in the search layer.
        """
        try:
            return self.with_overrides(**changes), None
        except ValueError as error:
            return None, str(error)

    # -- fingerprinting --------------------------------------------------
    def fingerprint_data(self):
        """Result-affecting fields in canonical JSON-ready form."""
        return {
            "tile_rows": self.tile_rows,
            "tile_cols": self.tile_cols,
            "bits": self.bits,
            "temp_c": self.temp_c,
            "sigma_vth_fefet": self.sigma_vth_fefet,
            "sigma_vth_mosfet": self.sigma_vth_mosfet,
            "seed": self.seed,
            "min_macs_for_cim": self.min_macs_for_cim,
            "backend": self.backend,
            "cells_per_row": self.cells_per_row,
            "bits_per_cell": self.bits_per_cell,
        }

    def fingerprint(self):
        """Stable hex digest of the mapping configuration."""
        payload = json.dumps(self.fingerprint_data(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()
