"""``Chip`` — a compiled program written onto physical arrays.

Binding a :class:`~repro.compiler.program.CompiledProgram` to a chip is
the moment the design stops being data and becomes (modeled) hardware:

* every tile is programmed onto the configured
  :class:`~repro.array.backend.ArrayBackend` (one
  :class:`~repro.array.backend.ProgrammedArray` per tile), drawing
  per-tile process variation from one seeded RNG in tile order — each tile
  is its own die region, and two chips built from the same program with
  the same seed are bit-identical;
* execution walks the model: Conv2D lowers to im2col + tiled matmul,
  Dense to tiled matmul, everything else runs the float layer (digital
  peripherals); partial sums accumulate across row-block tiles per the
  program's plan;
* a :class:`ChipMeter` counts physical row operations and bit-serial
  cycles per tile and prices them through the chip's one estimator
  (:mod:`repro.tune.estimators`): the paper-calibrated table (3.14 fJ
  per 8-cell row MAC, :class:`~repro.array.timing.LatencySpec` phases)
  at the mapping's geometry by default, or a measured report passed as
  ``Chip(program, design, estimator=report.estimator())``.  Replicas
  built from a chip share its estimator.

Bit-exactness across tilings
----------------------------
The chip forces the *layer-global* bit-serial schedule onto every tile:
the plane set pinned at compile time (``LayerPlan.planes``) and the
activation-bit mask computed over the full activation matrix per call
(``active_bits``).  Because the ADC decodes per 8-cell chunk and tiles
split only on chunk boundaries, every decode input is then identical to
the same matrix programmed onto one spanning array — so any chunk-aligned
tiling is bit-identical to the legacy single-array path (enforced by
``tests/compiler/test_tiling.py``).

Exact-decode fast path: when the backend proves its nominal decode is
the identity at the read's temperature and retention
(:meth:`~repro.array.backend.ArrayBackend.exact_decode`), a
variation-free layer's tile loop equals one integer product, and the
chip serves the layer as one float64 GEMM — bit-identical, and metered
exactly like the tile loop (``tests/compiler/test_exact_decode.py``);
where that gate fails, every tile runs the backend's analog decode.
A layer whose tiles carry programmed-in variation takes the same GEMM
at every temperature and retention, plus, per tile, the integer
corrections of the entries its certified guard band
(:meth:`~repro.array.backend.ArrayBackend.guard_band`) leaves
uncertified (``tests/compiler/test_guard_band.py``); the meter counts
how many layer matmuls ran a guard band and how many row ops were still
decoded explicitly.  A backend that runs no guard band (the dense
oracle) keeps such a layer on the tile loop.

Timing/energy model: weight planes, chunks, and tiles are spatially
parallel (each row has its own ADC and accumulation capacitor);
activation rows and activation bit planes are time-multiplexed.  One
matmul over ``M`` activation rows with ``B`` active bits therefore takes
``M * B`` MAC windows of latency, and costs
``M * B * planes * chunks * cols`` row operations of energy per tile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.array.backend import _validate_x_codes
from repro.array.mac_unit import BehavioralMacConfig, BitSerialMacUnit
from repro.compiler.lowering import layer_matmul_weights
from repro.devices.retention import DriftState, RetentionModel
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense
from repro.nn.quantize import quantize_tensor
from repro.tune.estimators import TableMacEstimator


def replica_variation_seed(base_seed, replica_index):
    """Deterministic, independent variation seed for one fleet replica.

    Every physical chip built from the same program is its own process
    corner — the chip-to-chip axis the paper (and TReCiM) stress for
    temperature-resilient deployment.  Replica 0 keeps the mapping's own
    draw (bit-identical to a plain :class:`Chip`); replicas ``i >= 1``
    redraw per-tile variation with a seed derived here.  ``SeedSequence``
    spawn keys give statistically independent streams without the
    collision risk of ad-hoc ``seed + i`` arithmetic.
    """
    if replica_index < 1:
        raise ValueError("replica 0 keeps the mapping's own draw")
    seq = np.random.SeedSequence(entropy=base_seed,
                                 spawn_key=(replica_index,))
    return int(seq.generate_state(1)[0])


@dataclass
class TileCounters:
    """Physical-operation counters for one programmed tile."""

    row_ops: int = 0
    matmuls: int = 0

    def as_dict(self):
        return {"row_ops": self.row_ops, "matmuls": self.matmuls}


class ChipMeter:
    """Per-tile energy/latency accounting for one chip.

    Counts are *physical*: one row op is one 8-cell analog MAC (one
    (activation-bit, weight-plane, chunk, column) firing for one
    activation row).  Pricing goes through one per-component
    ``estimator`` (:mod:`repro.tune.estimators`; default the paper's
    8-cell binary :class:`~repro.tune.estimators.TableMacEstimator`):
    energy prices row ops at its ``row_read`` action — a multibit row
    op costs ``bits_per_cell`` binary-row energies, so the MLC win shows
    up as *fewer row ops*, not cheaper ones — and latency prices the
    serial bit cycles at its summed read/share/decode phases.
    Thread-safe — sessions meter concurrent requests against one chip.
    """

    def __init__(self, estimator=None):
        self.estimator = estimator or TableMacEstimator()
        self.latency = self.estimator.latency
        self.energy_per_mac_j = float(self.estimator.per_mac_energy_j())
        #: Row width behind every metered row op — the per-MAC ->
        #: per-primitive-op conversion depends on it, so TOPS/W reported
        #: here uses the design's actual width, not an assumed 8.
        self.cells_per_row = int(self.estimator.cells_per_row)
        self.bits_per_cell = int(self.estimator.bits_per_cell)
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.tiles: Dict[Tuple[int, int, int], TileCounters] = {}
            self.row_ops = 0
            self.bit_cycles = 0
            self.matmuls = 0
            #: Variation-free layer matmuls the chip served as one exact
            #: GEMM / every other layer matmul (see
            #: :meth:`Chip.matmul_codes`).
            self.exact_layer_matmuls = 0
            self.analog_layer_matmuls = 0
            #: The analog layer matmuls whose tiles all ran a certified
            #: guard band (served as the layer GEMM plus corrections), and
            #: the row ops of entries no band certified.
            self.certified_layer_matmuls = 0
            self.explicit_row_ops = 0
            self.writes = 0
            self.write_energy_j = 0.0
            self.write_latency_s = 0.0
            self.reprograms = 0

    def record(self, tile_key, *, rows, active_bits, n_planes, chunks,
               cols, explicit_entries=0):
        """Account one tile matmul of ``rows`` activation rows.

        ``explicit_entries`` of the tile's ``n_planes * chunks * cols``
        (plane, chunk, column) entries carry variation no guard band
        certified, so their counts come from a decode rather than the
        exact product; it prices nothing.
        """
        ops = rows * active_bits * n_planes * chunks * cols
        with self._lock:
            counters = self.tiles.setdefault(tile_key, TileCounters())
            counters.row_ops += ops
            counters.matmuls += 1
            self.row_ops += ops
            self.matmuls += 1
            self.explicit_row_ops += rows * active_bits * explicit_entries

    def record_cycles(self, *, rows, active_bits, exact=False,
                      certified=False):
        """Account the serial schedule of one *layer* matmul (all tiles of
        a layer fire in parallel, so cycles accrue once per layer).

        ``exact`` marks a variation-free layer the simulator computed as
        the exact GEMM, and ``certified`` an analog one whose tiles all
        ran a guard band; the modeled cycles are the same.
        """
        with self._lock:
            self.bit_cycles += rows * active_bits
            if exact:
                self.exact_layer_matmuls += 1
            else:
                self.analog_layer_matmuls += 1
                self.certified_layer_matmuls += bool(certified)

    def record_write(self, *, erase_cells, program_pulses, serial_depth,
                     reprogram=False):
        """Account one chip (re)write, priced at the estimator's
        ``program_write`` action.

        Follows the :class:`~repro.array.write.RowWriter` pulse scheme:
        every cell takes one block-parallel erase pulse, every stored
        level one word-line-serial program pulse.  ``serial_depth`` is
        the longest program-pulse chain on any physical row — rows (and
        tiles) write in parallel, so it sets the wall-clock latency.
        Returns ``(energy_j, latency_s)`` of this write.
        """
        erase = self.estimator.estimate("program_write", bit=0)
        program = self.estimator.estimate("program_write", bit=1)
        energy = (erase_cells * erase.energy_j
                  + program_pulses * program.energy_j)
        latency = ((erase.latency_s if erase_cells else 0.0)
                   + serial_depth * program.latency_s)
        with self._lock:
            self.writes += 1
            self.write_energy_j += energy
            self.write_latency_s += latency
            if reprogram:
                self.reprograms += 1
        return energy, latency

    # -- derived quantities (all priced through the estimator) ----------
    @property
    def energy_per_row_op_j(self):
        """Per-level-priced energy of one (possibly multibit) row op."""
        return self.estimator.row_op_energy_j()

    @property
    def mac_latency_s(self):
        """Latency of one serial bit cycle (read + share + decode)."""
        return self.estimator.mac_latency_s()

    @property
    def energy_j(self):
        """Modeled array energy spent since the last reset."""
        return self.row_ops * self.energy_per_row_op_j

    @property
    def latency_s(self):
        """Modeled wall time of the serial MAC schedule since reset."""
        return self.bit_cycles * self.mac_latency_s

    @property
    def tops_per_watt(self):
        """Efficiency of the metered array at its actual row width."""
        return self.estimator.tops_per_watt()

    def snapshot(self):
        """JSON-safe accounting snapshot (totals + per-tile row ops)."""
        with self._lock:
            return {
                "row_ops": self.row_ops,
                "bit_cycles": self.bit_cycles,
                "matmuls": self.matmuls,
                "exact_layer_matmuls": self.exact_layer_matmuls,
                "analog_layer_matmuls": self.analog_layer_matmuls,
                "certified_layer_matmuls": self.certified_layer_matmuls,
                "explicit_row_ops": self.explicit_row_ops,
                "energy_j": self.row_ops * self.energy_per_row_op_j,
                "latency_s": self.bit_cycles * self.mac_latency_s,
                "energy_per_mac_j": self.energy_per_mac_j,
                "cells_per_row": self.cells_per_row,
                "bits_per_cell": self.bits_per_cell,
                "tops_per_watt": self.tops_per_watt,
                "writes": self.writes,
                "write_energy_j": self.write_energy_j,
                "write_latency_s": self.write_latency_s,
                "reprograms": self.reprograms,
                "tiles": {
                    f"L{layer}T{r}.{c}": counters.as_dict()
                    for (layer, r, c), counters in sorted(self.tiles.items())
                },
            }


class Chip:
    """A :class:`CompiledProgram` written onto a physical array backend.

    ``estimator`` prices the chip's :class:`ChipMeter` and must model the
    mapping's geometry; ``meter`` adopts a pre-built meter as-is (the
    process-worker bootstrap).  With ``unit`` and ``programmed`` the chip
    binds already-materialized state (e.g. shared-memory buffers) and
    writes nothing, so N processes may bind one mapped copy.
    """

    def __init__(self, program, design, *, estimator=None, meter=None,
                 unit=None, programmed=None):
        self.program = program
        self.design = design
        mapping = program.mapping
        # ``unit`` reuses an already-calibrated MAC unit, skipping its
        # batched circuit calibration; the caller guarantees it matches
        # the mapping's bits/sigma/backend.
        self.unit = unit or BitSerialMacUnit(design, BehavioralMacConfig(
            cells_per_row=mapping.cells_per_row,
            bits_x=mapping.bits,
            bits_w=mapping.bits,
            sigma_vth_fefet=mapping.sigma_vth_fefet,
            sigma_vth_mosfet=mapping.sigma_vth_mosfet,
            seed=mapping.seed,
            backend=mapping.backend,
            bits_per_cell=mapping.bits_per_cell,
        ))
        # One backend instance (the unit's own) so per-temperature decode
        # caches are shared with any direct mac_unit callers; a reused
        # unit configured for a different backend gets a fresh instance of
        # the mapping's choice over the same calibration.
        if self.unit.config.backend == mapping.backend:
            self.backend = self.unit.backend
        else:
            from repro.array.backend import make_backend

            self.backend = make_backend(mapping.backend, self.unit)
        # An estimator of another geometry would silently mis-price every
        # op (a measured per-MAC energy embeds its row width); refuse
        # rather than drift.
        if estimator is None:
            estimator = TableMacEstimator(
                cells_per_row=mapping.cells_per_row,
                bits_per_cell=mapping.bits_per_cell)
        if estimator.cells_per_row != mapping.cells_per_row:
            raise ValueError(
                f"estimator models {estimator.cells_per_row} cells/row;"
                f" cannot meter a {mapping.cells_per_row} cells/row "
                f"mapping")
        if estimator.bits_per_cell != mapping.bits_per_cell:
            raise ValueError(
                f"estimator models {estimator.bits_per_cell} bits/cell;"
                f" cannot meter a {mapping.bits_per_cell} bits/cell "
                f"mapping")
        self.meter = meter or ChipMeter(estimator)
        # ``programmed`` adopts tiles already written by a sibling chip
        # of the same program (see :meth:`build_replicas`): the bit-plane
        # decomposition is weight-determined, so replicas share it and
        # only the variation draws differ.
        self._programmed = dict(programmed) if programmed is not None \
            else {}
        if programmed is None:
            self._write_tiles()
        #: layer index -> float64 (K, N) signed weight codes, built on the
        #: first layer GEMM of that layer.
        self._layer_weights = {}
        #: Optional per-chip retention clock (:class:`DriftState`).
        #: ``None`` — the default — means stored state is treated as
        #: frozen, exactly the pre-drift behavior; sessions and pools
        #: opt in via :meth:`enable_drift`.
        self.drift = None

    @property
    def mapping(self):
        return self.program.mapping

    @classmethod
    def build_replicas(cls, program, design, n_replicas, *, first=None):
        """``n_replicas`` chips from one program — a serving fleet.

        Replica 0 is ``first``, or ``Chip(program, design)`` (the
        mapping's own per-tile variation draw) when none is given; every
        later replica reprograms its tiles with an independent draw seeded
        by :func:`replica_variation_seed` — each physical chip is its own
        die, the chip-to-chip variation axis a deployed fleet must stay
        accurate across.  Replicas are priced by the chip they are built
        from: every later replica meters through replica 0's estimator
        (``first.meter.estimator``), so the fleet shares one pricing model.

        All replicas share replica 0's calibrated MAC unit (one circuit
        calibration per fleet, and per-temperature level/decode caches
        are idempotent, so concurrent replica workers may share them
        safely) *and* its tiles' bit-plane decomposition —
        the decomposition is weight-determined, so later replicas only
        redraw the per-cell threshold offsets instead of re-programming
        from scratch.  Each replica gets its *own* meter, so per-replica
        energy/latency accounting stays separable.

        ``first`` supplies replica 0 pre-built — the warm-start path: a
        chip restored from the compiled-artifact store (or otherwise
        already programmed) becomes replica 0 as-is, and only the cheap
        variation redraws run for replicas 1..n-1.  The replica seeds
        derive from the program's mapping exactly as in the cold path,
        so a warm fleet is bit-identical to a cold one.
        """
        if n_replicas < 1:
            raise ValueError("a pool needs at least one replica")
        if first is not None and first.program is not program:
            raise ValueError(
                "`first` must be programmed from the same CompiledProgram "
                "the fleet is built for")
        first = first if first is not None else cls(program, design)
        chips = [first]
        for index in range(1, n_replicas):
            rng = np.random.default_rng(
                replica_variation_seed(program.mapping.seed, index))
            programmed = {
                key: first.backend.reprogram_variation(tile, rng=rng)
                for key, tile in first._programmed.items()}
            chips.append(cls(program, design,
                             estimator=first.meter.estimator,
                             unit=first.unit, programmed=programmed))
        return chips

    # ------------------------------------------------------------------
    # weight-stationary programming
    # ------------------------------------------------------------------
    def _write_tiles(self):
        """Program every tile, drawing variation in tile write order.

        One seeded RNG serves the whole chip, consumed layer by layer,
        row block outer, column block inner — for a spanning (single-tile)
        mapping this is exactly the legacy executor's per-layer draw
        sequence, which keeps a spanning chip bit-identical to it with
        variation enabled.
        """
        rng = np.random.default_rng(self.mapping.seed)
        self._programmed.clear()
        for plan in self.program.layers:
            for tile in plan.tiles:
                key = (tile.layer_index, tile.row_block, tile.col_block)
                self._programmed[key] = self.backend.program(
                    tile.w_codes, rng=rng, keep_planes=plan.planes)

    def redraw_variation(self, seed):
        """Fresh per-cell variation on every tile: a new Monte-Carlo die.

        Reuses each tile's bit-plane decomposition; a no-op for nominal
        (zero-sigma) mappings.
        """
        rng = np.random.default_rng(seed)
        for key, programmed in self._programmed.items():
            self._programmed[key] = self.backend.reprogram_variation(
                programmed, rng=rng)

    def programmed_tile(self, layer_index, row_block=0, col_block=0):
        """The :class:`ProgrammedArray` bound to one tile (for tests)."""
        return self._programmed[(layer_index, row_block, col_block)]

    # ------------------------------------------------------------------
    # time-dependent device state
    # ------------------------------------------------------------------
    def enable_drift(self, model=None, state=None):
        """Attach a retention clock: stored levels now age with time.

        ``state`` adopts an existing :class:`DriftState` (e.g. one
        restored from a :meth:`DriftState.as_dict` snapshot in a worker
        process); otherwise a fresh clock over ``model`` (default
        :class:`RetentionModel`) starts at full polarization.  A fresh
        clock reports retention exactly ``1.0``, so enabling drift
        without advancing it changes nothing bit-for-bit.
        """
        if state is not None:
            self.drift = state
        else:
            self.drift = DriftState(model=model or RetentionModel())
        return self.drift

    def advance_drift(self, duration_s, temp_c, ops=0):
        """Age the chip ``duration_s`` seconds at ``temp_c``.

        No-op (returns ``None``) while drift is disabled; otherwise
        returns the updated remaining-polarization fraction.
        """
        if self.drift is None:
            return None
        self.drift.advance(duration_s, temp_c, ops=ops)
        return self.drift.retention()

    def reprogram(self):
        """Rewrite every tile's stored state in place: fleet maintenance.

        The digital weights are unchanged — same planes, same per-cell
        variation draw (the die does not change when rewritten) — so the
        only effects are (a) restoring full polarization (the drift
        clock resets, the wear odometer survives) and (b) paying the
        physical write: one block-parallel erase pulse per cell plus one
        word-line-serial program pulse per stored level, priced through
        the meter's ``program_write`` action.  Returns a JSON-safe
        summary of the rewrite.
        """
        erase_cells = 0
        program_pulses = 0
        serial_depth = 0
        for programmed in self._programmed.values():
            planes = programmed.w_planes
            erase_cells += int(planes.size)
            nonzero = planes != 0
            pulses = int(nonzero.sum()) * programmed.bits_per_cell
            program_pulses += pulses
            if nonzero.size:
                # Cells on one word line program serially; rows, chunks,
                # planes, and tiles each have their own driver.
                depth = (int(nonzero.sum(axis=2).max())
                         * programmed.bits_per_cell)
                serial_depth = max(serial_depth, depth)
        energy, latency = self.meter.record_write(
            erase_cells=erase_cells, program_pulses=program_pulses,
            serial_depth=serial_depth, reprogram=True)
        if self.drift is not None:
            self.drift.reset()
        return {
            "erase_cells": erase_cells,
            "program_pulses": program_pulses,
            "write_energy_j": energy,
            "write_latency_s": latency,
            "retention": (None if self.drift is None
                          else self.drift.retention()),
        }

    # ------------------------------------------------------------------
    # tiled matmul with partial-sum accumulation
    # ------------------------------------------------------------------
    def _exact_weights(self, plan):
        """The layer's signed weight codes as float64 ``(K, N)``, cached.

        Where every chunk decodes its exact count, the layer-pinned plane
        schedule and active-bit mask make the tile loop equal ``x_codes @
        w_codes`` (plus any guard bands' corrections); its partial sums
        are integers below ``2**53``, which float64 BLAS adds exactly in
        any order.
        """
        weights = self._layer_weights.get(plan.index)
        if weights is None:
            weights = np.zeros((plan.k, plan.n))
            for tile in plan.tiles:
                weights[tile.k0:tile.k1, tile.n0:tile.n1] = tile.w_codes
            self._layer_weights[plan.index] = weights
        return weights

    def matmul_codes(self, plan, x_codes, *, temp_c):
        """Decoded integer matmul of unsigned activation codes against one
        layer's tile grid at ``temp_c``.

        Computes the activation-bit schedule over the **full** activation
        matrix and forces it onto every tile, then accumulates partial
        sums across row-block tiles per the compiled plan.  Every decoded
        count is an exact small integer times a power of two, so the
        accumulation order cannot introduce float error.

        A layer whose tiles all run a certified guard band, and a
        variation-free layer whose nominal decode provably makes no errors
        (:meth:`~repro.array.backend.ArrayBackend.exact_decode`), run as
        one float64 GEMM against :meth:`_exact_weights` instead, plus
        each band's corrections
        (:meth:`~repro.array.backend.FusedBitPlaneBackend.corrections`)
        at its tile's columns — bit-identical to the tile loop.  The meter
        books the same row ops and cycles either way; only the decode-path
        counters tell the paths apart: ``exact_layer_matmuls`` counts
        variation-free layers on the GEMM, ``analog_layer_matmuls`` the
        rest, ``certified_layer_matmuls`` those whose tiles all ran a
        guard band and ``explicit_row_ops`` the row ops of entries no
        band certified.
        """
        x_codes = np.asarray(x_codes, dtype=np.int64)
        if x_codes.ndim != 2 or x_codes.shape[1] != plan.k:
            raise ValueError(
                f"x_codes must be (M, {plan.k}) for layer {plan.index}, "
                f"got {x_codes.shape}")
        # Once, before anything is metered: a rejected matmul books
        # nothing on either path.
        bits_x = self.mapping.bits
        _validate_x_codes(x_codes, bits_x)
        m = x_codes.shape[0]
        ored = (int(np.bitwise_or.reduce(x_codes, axis=None))
                if x_codes.size else 0)
        active = ((ored >> np.arange(bits_x)) & 1).astype(bool)
        n_active = int(active.sum())

        # One retention read per layer matmul: every tile of the chip has
        # aged identically (one die, one thermal history).  A fresh or
        # absent clock yields ``None``/``1.0``, which the backends gate
        # back to the literal undrifted code path.
        retention = None if self.drift is None else self.drift.retention()
        # Per variation tile: its certified guard band (``None`` where the
        # backend runs none).  Per tile: the entries its matmul decodes
        # explicitly — those a band leaves uncertified, every entry of a
        # variation tile without one, none on a nominal tile.
        bands, explicit = {}, {}
        for tile in plan.tiles:
            key = (tile.layer_index, tile.row_block, tile.col_block)
            programmed = self._programmed[key]
            explicit[key] = 0
            if programmed.w_dv is not None:
                band = bands[key] = self.backend.guard_band(
                    programmed, temp_c, retention)
                explicit[key] = (band.n_uncertified if band is not None
                                 else (programmed.n_planes * programmed.chunks
                                       * programmed.n))
        certified = (len(bands) == len(plan.tiles)
                     and None not in bands.values())
        gemm = certified or (not bands and self.backend.exact_decode(
            temp_c, retention))
        self.meter.record_cycles(rows=m, active_bits=n_active,
                                 exact=gemm and not bands,
                                 certified=certified)
        if gemm:
            out = x_codes.astype(np.float64) @ self._exact_weights(plan)
            if bands and m and n_active:
                bits = np.flatnonzero(active)
                for tile in plan.tiles:
                    key = (tile.layer_index, tile.row_block, tile.col_block)
                    band = bands[key]
                    if band.n_uncertified:
                        cols, fixes = self.backend.corrections(
                            self._programmed[key], band,
                            x_codes[:, tile.k0:tile.k1], bits,
                            temp_c=temp_c, retention=retention)
                        out[:, tile.n0 + cols] += fixes
            out += 0.0   # BLAS may emit -0.0; the tile loop sums into +0.0
        else:
            out = np.zeros((m, plan.n))
        for tile_ids in plan.psum_plan:
            for t in tile_ids:
                tile = plan.tiles[t]
                key = (tile.layer_index, tile.row_block, tile.col_block)
                programmed = self._programmed[key]
                if not gemm:
                    out[:, tile.n0:tile.n1] += self.backend.matmul(
                        programmed, x_codes[:, tile.k0:tile.k1],
                        temp_c=temp_c, active_bits=active,
                        retention=retention)
                self.meter.record(
                    key, rows=m, active_bits=n_active,
                    n_planes=programmed.n_planes,
                    chunks=programmed.chunks, cols=programmed.n,
                    explicit_entries=explicit[key])
        return out

    @staticmethod
    def _row_segments(m, segments, rows_per_image):
        """Half-open activation-row ranges, one per request segment."""
        if segments is None:
            return [(0, m)]
        edges = np.concatenate(
            ([0], np.cumsum(np.asarray(segments) * rows_per_image)))
        if edges[-1] != m:
            raise ValueError(
                f"segments cover {edges[-1]} rows but the batch has {m}")
        return list(zip(edges[:-1], edges[1:]))

    def _cim_matmul(self, plan, x_float, temp_c, row_ranges=None):
        """Quantize activations, run the tile grid, dequantize.

        ``row_ranges`` splits the activation rows into per-request
        segments that quantize *independently* (own shift, own scale) but
        share one tiled integer matmul — this is what makes a micro-batched
        session bit-identical to serving each request alone: dynamic
        activation quantization never sees its batch neighbors, while the
        expensive bit-serial work still runs once over the whole batch.
        """
        if row_ranges is None:
            row_ranges = [(0, x_float.shape[0])]
        shifts, scales = [], []
        codes = np.empty(x_float.shape, dtype=np.int64)
        for r0, r1 in row_ranges:
            seg = x_float[r0:r1]
            shift = np.minimum(seg.min(), 0.0)
            xq = quantize_tensor(seg - shift, bits=self.mapping.bits,
                                 signed=False)
            codes[r0:r1] = xq.values
            shifts.append(shift)
            scales.append(xq.scale)

        counts = self.matmul_codes(plan, codes, temp_c=temp_c)

        out = np.empty((x_float.shape[0], plan.n))
        for (r0, r1), shift, scale in zip(row_ranges, shifts, scales):
            seg = counts[r0:r1] * (scale * plan.w_scale)
            if shift != 0.0:
                # Undo the activation shift: x = (x - s) + s contributes
                # s * sum(w) per output column.
                seg = seg + shift * plan.w_colsum
            out[r0:r1] = seg
        return out

    # ------------------------------------------------------------------
    # network execution
    # ------------------------------------------------------------------
    def _forward_conv(self, layer, x, plan, temp_c, segments):
        patches, out_h, out_w = F.im2col(x, layer.kernel, layer.kernel,
                                         layer.stride, layer.pad)
        if plan is None:
            out = patches @ layer_matmul_weights(layer)
            out = out + layer.params["b"]
        else:
            # im2col is image-major, so request segments stay contiguous:
            # each image contributes out_h * out_w patch rows.
            ranges = self._row_segments(patches.shape[0], segments,
                                        out_h * out_w)
            out = self._cim_matmul(plan, patches, temp_c, ranges) + plan.bias
        return out.reshape(x.shape[0], out_h, out_w, layer.c_out)

    def _forward_dense(self, layer, x, plan, temp_c, segments):
        if plan is None:
            return x @ layer.params["w"] + layer.params["b"]
        ranges = self._row_segments(x.shape[0], segments, 1)
        return self._cim_matmul(plan, x, temp_c, ranges) + plan.bias

    def forward(self, x, temp_c=None, segments=None):
        """Full inference with tiled CiM matmuls; returns logits.

        ``temp_c`` overrides the mapping's operating temperature for this
        call only — programmed tiles are reused as-is, mirroring hardware
        whose stored weights do not change with temperature.

        ``segments`` (per-request image counts summing to ``x.shape[0]``)
        makes one call serve several concatenated requests with
        *independent* dynamic activation quantization: the logits are
        bit-identical to calling :meth:`forward` once per segment, while
        the bit-serial matmuls run batched.  This is the micro-batching
        primitive the serving pool (:mod:`repro.serve`) builds on.
        """
        if segments is not None and sum(segments) != x.shape[0]:
            raise ValueError(
                f"segments {list(segments)} sum to {sum(segments)} but "
                f"the batch has {x.shape[0]} images")
        temp = (self.mapping.temp_c if temp_c is None else float(temp_c))
        for index, layer in enumerate(self.program.model.layers):
            plan = self.program.plan_for(index)
            if isinstance(layer, Conv2D):
                x = self._forward_conv(layer, x, plan, temp, segments)
            elif isinstance(layer, Dense):
                x = self._forward_dense(layer, x, plan, temp, segments)
            else:
                x = layer.forward(x, training=False)
        return x

    def predict(self, x, batch_size=32, temp_c=None):
        """Batched inference; returns logits for the whole set."""
        outs = [self.forward(x[s:s + batch_size], temp_c=temp_c)
                for s in range(0, x.shape[0], batch_size)]
        return np.concatenate(outs, axis=0)

    def __repr__(self):
        return (f"Chip({self.program.design_name}, "
                f"backend={self.mapping.backend!r}, "
                f"tiles={len(self._programmed)})")
