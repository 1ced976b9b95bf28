"""Frozen copy of the pre-redesign ``CimExecutor`` (PR 3 state).

This is the *reference semantics* the compile-and-serve redesign promises
to preserve: the equivalence suite asserts that the new
``repro.compiler``/``repro.serve`` stack produces bit-identical outputs
to this implementation.  Do not modernize this file; its value is that
it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.array.mac_unit import BehavioralMacConfig, BitSerialMacUnit
from repro.constants import REFERENCE_TEMP_C
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense
from repro.nn.quantize import quantize_tensor


@dataclass(frozen=True)
class CimExecutionConfig:
    """How to run a network on the array."""

    temp_c: float = REFERENCE_TEMP_C
    bits: int = 8
    sigma_vth_fefet: float = 0.0
    sigma_vth_mosfet: float = 0.0
    seed: int = 0
    #: Layers with fewer weights than this run in float (tiny first layers
    #: dominate error but not energy; the paper keeps them analog, we allow
    #: both for ablations).
    min_macs_for_cim: int = 0
    #: Array backend executing the programmed matmuls ("fused" is
    #: bit-identical to "dense" and several times faster).
    backend: str = "fused"


class _ProgrammedLayer:
    """One layer's weights as the array holds them: programmed, with scale.

    ``w_colsum`` caches ``sum_k w[k, :]`` of the float weights for the
    activation-shift correction in :meth:`CimExecutor._cim_matmul`.
    """

    __slots__ = ("programmed", "w_scale", "w_colsum")

    def __init__(self, programmed, w_scale, w_colsum):
        self.programmed = programmed
        self.w_scale = w_scale
        self.w_colsum = w_colsum


class CimExecutor:
    """Executes a Sequential model on the behavioral CiM array."""

    def __init__(self, model, design, exec_config=None, mac_config=None):
        self.model = model
        self.design = design
        self.config = exec_config or CimExecutionConfig()
        cfg = self.config
        base = mac_config or BehavioralMacConfig()
        self.mac_unit = BitSerialMacUnit(design, BehavioralMacConfig(
            cells_per_row=base.cells_per_row,
            bits_x=cfg.bits,
            bits_w=cfg.bits,
            temp_grid_c=base.temp_grid_c,
            sigma_vth_fefet=cfg.sigma_vth_fefet,
            sigma_vth_mosfet=cfg.sigma_vth_mosfet,
            seed=cfg.seed,
            sensing=base.sensing,
            backend=cfg.backend,
        ))
        # One backend instance (the unit's own) so per-temperature decode
        # caches are shared with any direct mac_unit.matmul callers.
        self.backend = self.mac_unit.backend
        self._programmed = {}
        self.reprogram()

    # ------------------------------------------------------------------
    # weight-stationary programming
    # ------------------------------------------------------------------
    @staticmethod
    def _layer_weights_2d(layer):
        """The layer's weights as the (K, N) matmul operand, or ``None``."""
        if isinstance(layer, Conv2D):
            return layer.params["w"].reshape(-1, layer.c_out)
        if isinstance(layer, Dense):
            return layer.params["w"]
        return None

    def reprogram(self):
        """(Re)program every CiM-mapped layer from the model's weights.

        Runs once at construction; call again if the model's weights were
        modified afterwards (the array is nonvolatile — it does not track
        the float model by itself).  Variation draws consume one seeded RNG
        in layer order, so two executors with identical configs program
        identical arrays.
        """
        rng = np.random.default_rng(self.config.seed)
        self._programmed.clear()
        for index, layer in enumerate(self.model.layers):
            w2d = self._layer_weights_2d(layer)
            if w2d is None or w2d.size < self.config.min_macs_for_cim:
                continue
            wq = quantize_tensor(w2d, bits=self.config.bits, signed=True)
            programmed = self.backend.program(wq.values, rng=rng)
            self._programmed[index] = _ProgrammedLayer(
                programmed, wq.scale, w2d.sum(axis=0))

    def redraw_variation(self, seed):
        """Redraw every programmed layer's per-cell variation offsets.

        Models a fresh Monte-Carlo die: identical stored weights, new
        process variation.  The expensive bit-plane decomposition is
        reused; a no-op for nominal (zero-sigma) configs.
        """
        rng = np.random.default_rng(seed)
        for entry in self._programmed.values():
            entry.programmed = self.backend.reprogram_variation(
                entry.programmed, rng=rng)

    # ------------------------------------------------------------------
    def _cim_matmul(self, x_float, entry, temp_c):
        """Quantize activations, run on the programmed array, dequantize."""
        x_shift = np.minimum(x_float.min(), 0.0)
        xq = quantize_tensor(x_float - x_shift, bits=self.config.bits,
                             signed=False)
        counts = self.backend.matmul(entry.programmed, xq.values,
                                     temp_c=temp_c)
        out = counts * (xq.scale * entry.w_scale)
        if x_shift != 0.0:
            # Undo the activation shift: x = (x - s) + s contributes s * sum(w).
            out = out + x_shift * entry.w_colsum
        return out

    def _forward_conv(self, layer, x, entry, temp_c):
        patches, out_h, out_w = F.im2col(x, layer.kernel, layer.kernel,
                                         layer.stride, layer.pad)
        if entry is None:
            out = patches @ layer.params["w"].reshape(-1, layer.c_out)
        else:
            out = self._cim_matmul(patches, entry, temp_c)
        out = out + layer.params["b"]
        return out.reshape(x.shape[0], out_h, out_w, layer.c_out)

    def _forward_dense(self, layer, x, entry, temp_c):
        if entry is None:
            out = x @ layer.params["w"]
        else:
            out = self._cim_matmul(x, entry, temp_c)
        return out + layer.params["b"]

    def forward(self, x, temp_c=None):
        """Full inference with CiM-lowered matmuls; returns logits.

        ``temp_c`` overrides the configured operating temperature for this
        call only — the programmed arrays are reused as-is, mirroring
        hardware whose stored weights do not change with temperature.
        """
        temp = self.config.temp_c if temp_c is None else float(temp_c)
        for index, layer in enumerate(self.model.layers):
            entry = self._programmed.get(index)
            if isinstance(layer, Conv2D):
                x = self._forward_conv(layer, x, entry, temp)
            elif isinstance(layer, Dense):
                x = self._forward_dense(layer, x, entry, temp)
            else:
                x = layer.forward(x, training=False)
        return x

    def predict(self, x, batch_size=32, temp_c=None):
        """Batched inference; returns logits for the whole set."""
        outs = [self.forward(x[s:s + batch_size], temp_c=temp_c)
                for s in range(0, x.shape[0], batch_size)]
        return np.concatenate(outs, axis=0)
