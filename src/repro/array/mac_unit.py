"""Behavioral bit-serial MAC unit — the fast path for NN-scale simulation.

Running the full MNA transient for every dot product of a CNN is hopeless
(a single small image needs ~10^6 row operations), so a compiled chip
(:class:`~repro.compiler.chip.Chip`) runs a *behavioral twin* of the
circuit-level row:

1. At construction, the unit runs the real circuit transient for the cell's
   four (weight, input) states across a temperature grid and for perturbed
   thresholds, all as one batched ensemble, yielding interpolated level
   functions ``V(state, T)`` and a linearized process-variation
   sensitivity ``dV_on/dV_TH``.
2. A MAC over a chunk of 8 operands is then: count the (1,1)/(1,0)/(0,1)/
   (0,0) cells, combine level voltages via the eq. (1) charge-sharing gain,
   add per-cell variation contributions, and decode against ADC thresholds
   calibrated at 27 degC — all vectorized numpy.
3. Multi-bit operands (the paper's 8-bit wordlength) are handled
   bit-serially: every (weight-bit, input-bit) plane pair runs through the
   binary array and the digital backend shifts-and-adds the decoded counts.

The behavioral twin is validated against the circuit-level row in the test
suite (levels match to < 1 mV), so NN-level conclusions inherit the circuit
model's physics.

Multi-bit matmuls are executed by a pluggable *array backend*
(:mod:`repro.array.backend`): :meth:`BitSerialMacUnit.matmul` is a one-shot
convenience that programs the weights and computes in a single call, while
callers that reuse a weight matrix (a chip's tiles, Monte-Carlo sweeps)
program once via ``unit.backend.program`` and run
``unit.backend.matmul`` per activation batch — the weight-stationary flow
of real nonvolatile hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.array.sensing import ChargeSharingSensor, SensingSpec
from repro.cells.base import READ_DT, read_circuit
from repro.circuit.batched import transient_simulation_batched
from repro.constants import REFERENCE_TEMP_C
from repro.devices.variation import CellVariation

#: (weight, input) cell states in a fixed order.
CELL_STATES = ((1, 1), (1, 0), (0, 1), (0, 0))

#: Devices whose threshold shift the on-level sensitivity is taken over.
SENSITIVITY_KEYS = ("fefet_dvth", "m1_dvth", "m2_dvth")


@dataclass(frozen=True)
class MacCalibration:
    """The circuit-derived state of a :class:`BitSerialMacUnit`.

    Everything the unit learned from running real transients: the four
    (weight, input) state levels over the temperature grid and the
    linearized on-level threshold sensitivities.  The ADC thresholds are
    *not* carried — they are pure arithmetic over the 27 degC levels and
    are recomputed on restore, so a restored unit cannot hold thresholds
    inconsistent with its levels.

    This is what the compiled-artifact store serializes: constructing a
    unit from a ``MacCalibration`` skips the calibration's batched
    circuit transient (about 0.1 s of a cold chip bring-up) while
    staying bit-identical, because all downstream math consumes only
    these float64 values.
    """

    #: Temperature grid the levels were calibrated over (degC).
    temp_grid_c: tuple
    #: (4, T) levels, rows in :data:`CELL_STATES` order.
    levels: np.ndarray
    #: ``dV_on/dV_TH`` per device ("fefet_dvth", "m1_dvth", "m2_dvth").
    von_sensitivity: dict


@dataclass(frozen=True)
class BehavioralMacConfig:
    """Configuration of the behavioral MAC unit."""

    cells_per_row: int = 8
    bits_x: int = 8              # activation wordlength (unsigned)
    bits_w: int = 8              # weight wordlength (signed)
    temp_grid_c: tuple = (0.0, 20.0, 27.0, 40.0, 60.0, 85.0)
    sigma_vth_fefet: float = 0.0   # per-cell variation; 0 = nominal
    sigma_vth_mosfet: float = 0.0
    seed: int = 0
    sensing: SensingSpec = field(default_factory=SensingSpec)
    #: Array backend executing multi-bit matmuls (see repro.array.backend).
    backend: str = "dense"
    #: Magnitude bits stored per cell (MLC weight encoding).  ``b > 1``
    #: programs each cell to one of ``2**b`` partial-polarization levels
    #: and shrinks the weight-plane schedule to ``ceil((bits_w-1)/b)``
    #: digit planes; the ADC ladder grows to ``cells_per_row * (2**b - 1)
    #: + 1`` levels.  ``1`` is the seed's binary cell, bit-identical.
    bits_per_cell: int = 1


class BitSerialMacUnit:
    """Executes integer matmuls on the behavioral CiM array model."""

    def __init__(self, design, config: BehavioralMacConfig | None = None,
                 *, calibration: MacCalibration | None = None):
        self.design = design
        self.config = config or BehavioralMacConfig()
        if self.config.sensing.co_farads != design.co_farads:
            # Keep the charge-sharing math consistent with the cell's C_o.
            self.config = BehavioralMacConfig(
                **{**self.config.__dict__,
                   "sensing": SensingSpec(co_farads=design.co_farads,
                                          cacc_farads=self.config.sensing.cacc_farads)},
            )
        self._levels = {}          # state -> np.ndarray over temp grid
        self._von_sensitivity = None
        self._level_cache = {}     # float(temp_c) -> {state: level}
        self._backend = None       # lazily built from config.backend
        if calibration is not None:
            self._restore_calibration(calibration)
        else:
            self._calibrate_levels()
        self._sensor = self._calibrate_sensor()

    # ------------------------------------------------------------------
    # calibration against the circuit-level cell
    # ------------------------------------------------------------------
    def _calibrate_levels(self):
        """Levels and sensitivities from one batched read-transient ensemble.

        The four states' reads at every grid temperature (24 on the
        default grid) and the three threshold-shifted on-level reads at
        27 degC share the single-cell read circuit, so they run as one
        :func:`transient_simulation_batched` call.  The
        scalar :func:`~repro.cells.base.cell_read_transient` stays the
        oracle; the test suite asserts the ensemble reproduces it bit for
        bit.
        """
        temps = [float(t) for t in self.config.temp_grid_c]
        delta = 27e-3  # half the paper's sigma: stays in the linear region
        reads = [(t, weight, inp, None)
                 for weight, inp in CELL_STATES for t in temps]
        reads += [(REFERENCE_TEMP_C, 1, 1, CellVariation(**{which: delta}))
                  for which in SENSITIVITY_KEYS]
        ensemble = transient_simulation_batched(
            [read_circuit(self.design, weight_bit=weight, input_bit=inp,
                          variation=var)
             for _, weight, inp, var in reads],
            t_stop=self.design.t_read, dt=READ_DT,
            temps_c=[t for t, *_ in reads], initial_conditions={"out": 0.0})
        out = ensemble.final_voltage("out")
        n_levels = len(CELL_STATES) * len(temps)
        levels = out[:n_levels].reshape(len(CELL_STATES), len(temps))
        self._levels = dict(zip(CELL_STATES, levels))
        # Linearized variation sensitivity of the on-level at 27 degC.
        base = self._level((1, 1), REFERENCE_TEMP_C)
        self._von_sensitivity = {
            which: float((shifted - base) / delta)
            for which, shifted in zip(SENSITIVITY_KEYS, out[n_levels:])}

    def _restore_calibration(self, calibration: MacCalibration):
        """Adopt previously-measured levels instead of running transients.

        Bit-exact: every downstream quantity (interpolated levels, ADC
        thresholds, ``sigma_cell``) is deterministic float math over
        these values, so a restored unit computes exactly what the unit
        that produced the calibration computed.
        """
        grid = tuple(float(t) for t in self.config.temp_grid_c)
        cal_grid = tuple(float(t) for t in calibration.temp_grid_c)
        if cal_grid != grid:
            raise ValueError(
                f"calibration covers temperature grid {cal_grid} but the "
                f"config expects {grid}")
        levels = np.asarray(calibration.levels, dtype=np.float64)
        if levels.shape != (len(CELL_STATES), len(grid)):
            raise ValueError(
                f"calibration levels must have shape "
                f"({len(CELL_STATES)}, {len(grid)}), got {levels.shape}")
        for i, state in enumerate(CELL_STATES):
            self._levels[state] = levels[i].copy()
        missing = [k for k in SENSITIVITY_KEYS
                   if k not in calibration.von_sensitivity]
        if missing:
            raise ValueError(
                f"calibration is missing sensitivities {missing}")
        self._von_sensitivity = {
            k: float(calibration.von_sensitivity[k])
            for k in SENSITIVITY_KEYS}

    def calibration(self) -> MacCalibration:
        """Snapshot this unit's circuit-derived state for serialization.

        Feeding the snapshot back through ``BitSerialMacUnit(design,
        config, calibration=...)`` rebuilds an equivalent unit with zero
        circuit transients.
        """
        return MacCalibration(
            temp_grid_c=tuple(float(t) for t in self.config.temp_grid_c),
            levels=np.stack([np.asarray(self._levels[state], dtype=float)
                             for state in CELL_STATES]),
            von_sensitivity=dict(self._von_sensitivity))

    def _level_table(self, temp_c):
        """All four state levels at ``temp_c``, interpolated once and cached.

        The MAC hot path asks for levels on every call but NN workloads use
        a handful of distinct temperatures, so the ``np.interp`` work is
        memoized per temperature instead of re-run per state per call.
        A temperature outside the calibration grid raises ``ValueError``:
        ``np.interp`` would clamp it and silently serve the nearest grid
        edge's physics.
        """
        key = float(temp_c)
        table = self._level_cache.get(key)
        if table is None:
            grid = self.config.temp_grid_c
            if not min(grid) <= key <= max(grid):
                raise ValueError(
                    f"temperature {key} degC is outside the calibration "
                    f"grid {tuple(float(t) for t in grid)} degC")
            table = {
                state: float(np.interp(key, self.config.temp_grid_c,
                                       self._levels[state]))
                for state in CELL_STATES
            }
            self._level_cache[key] = table
        return table

    def _level(self, state, temp_c):
        """Interpolated cell output level for a (weight, input) state."""
        return self._level_table(temp_c)[state]

    def levels_at(self, temp_c):
        """The ``(V_11, V_10, V_01, V_00)`` level tuple at ``temp_c``.

        Cached per temperature; this is what the array backends consume.
        """
        table = self._level_table(temp_c)
        return tuple(table[state] for state in CELL_STATES)

    def drifted_levels(self, temp_c, retention=None):
        """Level tuple with retention loss folded into the stored states.

        Depolarization relaxes a *programmed* (weight-1) cell toward the
        erased state while leaving erased cells where they are — the
        read window collapses from the top.  With remaining polarization
        fraction ``f`` the conducting levels shift affinely onto their
        erased anchors::

            V_11 -> V_01 + f * (V_11 - V_01)      (input high)
            V_10 -> V_00 + f * (V_10 - V_00)      (input low)

        ``retention=None`` returns :meth:`levels_at` verbatim (no float
        ops), which is what keeps drift-free serving bit-identical to
        the seed.  Every backend decode path evaluates *this* expression,
        so dense and fused kernels cannot disagree under drift.
        """
        von, z10, z01, z00 = self.levels_at(temp_c)
        if retention is None:
            return von, z10, z01, z00
        return (z01 + retention * (von - z01),
                z00 + retention * (z10 - z00), z01, z00)

    def drifted_digit_steps(self, temp_c, retention=None):
        """Multibit per-digit steps under retention loss.

        The partial-polarization ladder shrinks proportionally — digit
        ``d`` reads ``V_01 + d * f * s_on`` — which is exactly the
        binary-cell shift of :meth:`drifted_levels` evaluated per level
        (the endpoints agree because ``d = digit_max`` is the binary
        programmed state).  ``retention=None`` is :meth:`digit_steps`
        verbatim.
        """
        s_on, s_off = self.digit_steps(temp_c)
        if retention is None:
            return s_on, s_off
        return retention * s_on, retention * s_off

    def digit_steps(self, temp_c):
        """Per-digit level steps ``(s_on, s_off)`` of the multibit cell.

        The program-verify write loop (:mod:`repro.cells.multibit`) places
        the ``2**bits_per_cell`` partial-polarization levels on a uniform
        voltage ladder between the binary-cell endpoints, so a cell
        storing digit ``d`` reads ``V_01 + d * s_on`` when its input is
        high and ``V_00 + d * s_off`` when low, with ``d = digit_max``
        exactly the fully-programmed binary state.  Deterministic float
        math over the cached level table — every backend path computes
        identical step values.
        """
        digit_max = (1 << self.config.bits_per_cell) - 1
        von, z10, z01, z00 = self.levels_at(temp_c)
        return (von - z01) / digit_max, (z10 - z00) / digit_max

    def _calibrate_sensor(self):
        """ADC thresholds from nominal 27 degC prefix-pattern levels.

        Multibit units calibrate a ``cells * digit_max + 1``-level ladder
        built from the canonical prefix pattern for MAC value ``k``:
        ``k // digit_max`` fully-on input-high cells, one input-high cell
        at partial digit ``k % digit_max`` (when nonzero), and the
        remaining cells contributing the *midpoint* background ``(V_10 +
        V_00) / 2`` — a trimmed flash ADC centers its decision windows on
        the expected background leakage, and with 2^b levels per cell the
        decode gap is ``digit_max`` times narrower than binary, so the
        seed's all-``V_10`` background assumption would bias every decode
        low by most of a gap (measured: 3 bits/cell mis-decodes ~60% of
        VGG outputs at 27 degC with the biased ladder, 0% with the
        centered one).  ``bits_per_cell = 1`` keeps the seed ladder
        untouched.  ``ChargeSharingSensor.calibrate`` raises loudly if
        temperature or geometry ever makes the ladder non-monotone, so a
        decodable multibit config is self-verifying.
        """
        n = self.config.cells_per_row
        gain = self.config.sensing.share_gain(n)
        von = self._level((1, 1), REFERENCE_TEMP_C)
        z10 = self._level((1, 0), REFERENCE_TEMP_C)
        if self.config.bits_per_cell == 1:
            levels = gain * (np.arange(n + 1) * von
                             + (n - np.arange(n + 1)) * z10)
        else:
            digit_max = (1 << self.config.bits_per_cell) - 1
            z01 = self._level((0, 1), REFERENCE_TEMP_C)
            z00 = self._level((0, 0), REFERENCE_TEMP_C)
            s_on, _ = self.digit_steps(REFERENCE_TEMP_C)
            z_bg = (z10 + z00) / 2.0
            k = np.arange(n * digit_max + 1)
            q, r = k // digit_max, k % digit_max
            partial = np.where(r > 0, z01 + r * s_on, 0.0)
            levels = gain * (q * von + partial
                             + (n - q - (r > 0)) * z_bg)
        sensor = ChargeSharingSensor(self.config.sensing)
        return sensor.calibrate(levels)

    @property
    def sensor(self):
        """The calibrated charge-sharing sensor (fixed 27 degC thresholds)."""
        return self._sensor

    @property
    def sigma_cell(self):
        """Effective per-cell on-level voltage sigma implied by the config.

        Combines the linearized FeFET/MOSFET threshold sensitivities with
        the configured threshold sigmas; zero for nominal configs.
        """
        cfg = self.config
        if cfg.sigma_vth_fefet <= 0 and cfg.sigma_vth_mosfet <= 0:
            return 0.0
        s = self._von_sensitivity
        return float(np.sqrt(
            (s["fefet_dvth"] * cfg.sigma_vth_fefet) ** 2
            + (s["m1_dvth"] * cfg.sigma_vth_mosfet) ** 2
            + (s["m2_dvth"] * cfg.sigma_vth_mosfet) ** 2
        ))

    @property
    def backend(self):
        """The array backend selected by ``config.backend`` (lazy)."""
        if self._backend is None:
            from repro.array.backend import make_backend

            self._backend = make_backend(self.config.backend, self)
        return self._backend

    def level_table(self, temp_c):
        """Dict of cell level per (weight, input) state at ``temp_c``."""
        return dict(self._level_table(temp_c))

    # ------------------------------------------------------------------
    # binary matmul on the array
    # ------------------------------------------------------------------
    def _pad_to_chunks(self, k):
        n = self.config.cells_per_row
        return (k + n - 1) // n * n

    def binary_matmul(self, x_bits, w_bits, *, temp_c, rng=None):
        """MAC counts decoded from the analog array for binary operands.

        Parameters
        ----------
        x_bits:
            (M, K) array of 0/1 activations.
        w_bits:
            (K, N) array of 0/1 weights.
        temp_c:
            Operating temperature (drifts the analog levels; the ADC
            thresholds stay at their 27 degC calibration).
        rng:
            Numpy generator used to draw per-cell threshold offsets when the
            config's sigmas are nonzero.

        Returns
        -------
        (M, N) array of integer dot products as *decoded by the hardware*
        (ideal result would be ``x_bits @ w_bits``).
        """
        x_bits = np.asarray(x_bits)
        w_bits = np.asarray(w_bits)
        m, k = x_bits.shape
        k2, n = w_bits.shape
        if k != k2:
            raise ValueError("inner dimensions differ")
        cells = self.config.cells_per_row
        k_pad = self._pad_to_chunks(k)
        if k_pad != k:
            x_bits = np.pad(x_bits, ((0, 0), (0, k_pad - k)))
            w_bits = np.pad(w_bits, ((0, k_pad - k), (0, 0)))
        chunks = k_pad // cells
        xr = x_bits.reshape(m, chunks, cells).astype(np.float64)
        wr = w_bits.reshape(chunks, cells, n).astype(np.float64)

        n11 = np.einsum("mce,cen->mcn", xr, wr)            # (w=1, x=1) count
        n_w1 = wr.sum(axis=1)                              # (chunks, n)
        n_x1 = xr.sum(axis=2)                              # (m, chunks)
        n10 = n_w1[None, :, :] - n11
        n01 = n_x1[:, :, None] - n11
        n00 = cells - n_w1[None, :, :] - n_x1[:, :, None] + n11

        von, z10, z01, z00 = self.levels_at(temp_c)
        gain = self.config.sensing.share_gain(cells)
        vacc = gain * (n11 * von + n10 * z10 + n01 * z01 + n00 * z00)

        sigma_cell = self.sigma_cell
        if sigma_cell > 0:
            rng = rng or np.random.default_rng(self.config.seed)
            # Per-physical-cell offsets: one draw per (chunk, cell, column).
            dv = rng.normal(0.0, sigma_cell, size=wr.shape)
            vacc = vacc + gain * np.einsum("mce,cen->mcn", xr, wr * dv)

        decoded = self._sensor.decode(vacc)
        return decoded.sum(axis=1)

    # ------------------------------------------------------------------
    # multi-bit (bit-serial) matmul
    # ------------------------------------------------------------------
    def matmul(self, x_codes, w_codes, *, temp_c, rng=None):
        """Bit-serial integer matmul: unsigned x codes, signed w codes.

        One-shot convenience over the array backend: programs ``w_codes``
        (bit-plane decomposition plus, for noisy configs, per-physical-cell
        variation draws from ``rng``) and immediately computes — the
        paper's 8-bit wordlength scheme on a binary crossbar.  Operands
        whose magnitude exceeds the configured wordlength raise
        ``ValueError`` (they would silently truncate on real hardware
        drivers; here we treat it as a caller bug).

        Callers reusing one weight matrix across batches, temperatures, or
        Monte-Carlo shards should instead ``program`` once through
        :attr:`backend` and call ``backend.matmul`` per batch.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        programmed = self.backend.program(w_codes, rng=rng)
        return self.backend.matmul(programmed, x_codes, temp_c=temp_c)

    def ideal_matmul(self, x_codes, w_codes):
        """The digital reference the hardware is judged against."""
        return np.asarray(x_codes, dtype=np.int64) @ np.asarray(
            w_codes, dtype=np.int64)
