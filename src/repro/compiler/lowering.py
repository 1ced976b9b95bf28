"""``compile(model, design, mapping)`` — lower a network onto tiled arrays.

Lowering steps per Conv2D/Dense layer (the paper's Sec. IV-B flow, now
with finite arrays):

1. express the layer as a (K, N) matmul operand — conv kernels reshape to
   ``(kernel*kernel*c_in, c_out)`` and execute over im2col patches;
2. quantize the weights to signed ``bits``-bit codes (symmetric uniform,
   zero maps to the non-conducting high-V_TH code);
3. derive the matrix-wide bit-serial plane schedule
   (:func:`repro.array.backend.plane_schedule`) that **every** tile of the
   layer runs, so blank planes in edge tiles still cycle exactly like the
   corresponding chunks of one spanning array;
4. split the code matrix into a grid of ``tile_rows x tile_cols`` tiles
   (ragged edge tiles keep their natural size — the backend pads the last
   row chunk, which is also what a spanning array does for the same rows)
   and record the partial-sum accumulation plan: each output column block
   is the ordered sum of its row-block tiles' decoded counts.

The result is an immutable :class:`~repro.compiler.program.CompiledProgram`
— pure data, no RNG consumed, nothing programmed.  Bind it to hardware
with :class:`repro.compiler.chip.Chip` (which draws per-tile variation and
meters energy/latency) and serve it through :class:`repro.serve.ChipPool`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.array.backend import plane_schedule
from repro.compiler.mapping import MappingConfig
from repro.compiler.program import (
    CompiledProgram,
    LayerPlan,
    TileSpec,
    freeze_array,
)
from repro.nn.layers import Conv2D, Dense
from repro.nn.quantize import quantize_tensor


def layer_matmul_weights(layer):
    """The layer's weights as the (K, N) matmul operand, or ``None``.

    Shared by the compiler and :class:`~repro.compiler.chip.Chip` (whose
    float path runs unmapped layers) so Conv2D/Dense lowering can never
    diverge between them.
    """
    if isinstance(layer, Conv2D):
        return layer.params["w"].reshape(-1, layer.c_out)
    if isinstance(layer, Dense):
        return layer.params["w"]
    return None


def _compile_layer(index, layer, w2d, mapping):
    """One layer's :class:`LayerPlan` (weights already validated 2-D)."""
    wq = quantize_tensor(w2d, bits=mapping.bits, signed=True)
    k, n = w2d.shape
    planes = plane_schedule(wq.values, mapping.bits, mapping.bits_per_cell)
    row_blocks = mapping.row_blocks(k)
    col_blocks = mapping.col_blocks(n)

    tiles = []
    for r, (k0, k1) in enumerate(row_blocks):
        for c, (n0, n1) in enumerate(col_blocks):
            tiles.append(TileSpec(
                layer_index=index, row_block=r, col_block=c,
                k0=k0, k1=k1, n0=n0, n1=n1,
                w_codes=freeze_array(wq.values[k0:k1, n0:n1])))
    # Accumulation plan: output cols [n0:n1] = sum over row blocks of the
    # (r, c) tile's decoded counts, row block ascending.  Tiles are laid
    # out row-block-major, so tile (r, c) sits at r * len(col_blocks) + c.
    psum_plan = tuple(
        tuple(r * len(col_blocks) + c for r in range(len(row_blocks)))
        for c in range(len(col_blocks)))

    conv = isinstance(layer, Conv2D)
    return LayerPlan(
        index=index, kind="conv" if conv else "dense", k=k, n=n,
        w_scale=wq.scale,
        w_colsum=freeze_array(w2d.sum(axis=0)),
        bias=freeze_array(np.array(layer.params["b"], copy=True)),
        planes=planes,
        grid=(len(row_blocks), len(col_blocks)),
        tiles=tuple(tiles),
        psum_plan=psum_plan,
        kernel=layer.kernel if conv else None,
        stride=layer.stride if conv else None,
        pad=layer.pad if conv else None,
        c_out=layer.c_out if conv else None,
    )


def _fingerprint(design, mapping, plans):
    """Content hash over mapping + design + every tile's weight codes."""
    h = hashlib.sha256()
    h.update(mapping.fingerprint().encode())
    h.update(type(design).__name__.encode())
    h.update(repr(design).encode())
    for plan in plans:
        h.update(f"{plan.index}:{plan.kind}:{plan.k}x{plan.n}:"
                 f"{plan.w_scale!r}:{plan.grid}:{plan.planes}".encode())
        h.update(plan.bias.tobytes())
        for tile in plan.tiles:
            h.update(tile.w_codes.tobytes())
    return h.hexdigest()


def compile_model(model, design, mapping=None) -> CompiledProgram:
    """Lower ``model`` onto ``design``'s arrays under ``mapping``.

    Exported as ``repro.compiler.compile``.  Layers that are not
    Conv2D/Dense — or that fall under ``mapping.min_macs_for_cim`` — stay
    digital and keep using the live float model at execution time; every
    compiled layer's weights are snapshotted here.
    """
    mapping = mapping or MappingConfig()
    plans = []
    for index, layer in enumerate(model.layers):
        w2d = layer_matmul_weights(layer)
        if w2d is None or w2d.size < mapping.min_macs_for_cim:
            continue
        plans.append(_compile_layer(index, layer, w2d, mapping))
    plans = tuple(plans)
    return CompiledProgram(
        model=model,
        design_name=type(design).__name__,
        mapping=mapping,
        layers=plans,
        fingerprint=_fingerprint(design, mapping, plans),
    )
