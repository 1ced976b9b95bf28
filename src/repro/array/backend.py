"""Pluggable array backends: weight-stationary programming + MAC kernels.

The behavioral bit-serial matmul has two physically distinct halves that the
original :class:`~repro.array.mac_unit.BitSerialMacUnit.matmul` fused into
one call:

*programming* (write path, happens once per weight matrix)
    Decompose signed weight codes into (sign, digit) planes — base-2^b
    digits for ``bits_per_cell = b`` cells, plain binary bits when
    ``b = 1`` — map each plane onto 8-cell row chunks, and — when process
    variation is enabled — draw one threshold offset per *physical cell*.
    On a nonvolatile FeFET array the weights are written once and stay
    put, so all of this work is batch-, temperature- and
    shot-independent.

*compute* (read path, happens per activation batch)
    Decompose activations into bit planes, run every (weight-plane,
    activation-plane) pair through the analog row model (charge sharing at
    the operating temperature, fixed 27 degC ADC thresholds), and
    shift-add the decoded counts.

:class:`ArrayBackend` captures that split: :meth:`ArrayBackend.program`
returns an immutable :class:`ProgrammedArray` and
:meth:`ArrayBackend.matmul` performs activation-side work only.  Two
implementations ship:

:class:`DenseNumpyBackend`
    The reference kernel — the seed's per-plane-pair loop moved here
    verbatim.  Every plane pair materializes its own count tensors and
    decodes separately.

:class:`FusedBitPlaneBackend`
    Stacks all weight planes along a plane axis and computes every
    (activation-bit, weight-plane) pair in one batched BLAS matmul.  For
    nominal (zero-variation) arrays the whole analog-decode chain collapses
    into a cached per-temperature integer lookup table indexed by the
    ``(n11, weight-count, activation-count)`` triple, because the eq. (1)
    accumulation voltage is affine in those three integers.  Decoded
    outputs are bit-identical to the dense backend (the equivalence suite
    enforces this), typically several times faster, and the LUT caches make
    repeated temperature sweeps nearly free.

Both backends share :meth:`ArrayBackend.program`, so identical RNGs yield
identical per-cell variation draws — the foundation of the dense-vs-fused
bit-exactness guarantee.

Multibit (MLC) weight encoding
------------------------------
With ``bits_per_cell = b > 1`` each cell stores a digit ``d`` in
``0 .. 2^b - 1`` as a program-verified partial-polarization level (see
:mod:`repro.cells.multibit`): the cell's read-window output is affine in
the digit, ``V(d, x=1, T) = V_01 + d * s_on(T)`` and ``V(d, x=0, T) =
V_00 + d * s_off(T)``, with the endpoints anchored at the binary-cell
states.  The plane schedule shrinks from ``bits_w - 1`` magnitude bit
planes to ``ceil((bits_w - 1) / b)`` digit planes — the direct BLAS-pass
multiplier on the fused backend's hot loop.  Because the digit expression
reduces *algebraically but not float-bitwise* to the binary expression at
``b = 1``, the single-bit code paths below are kept literally unchanged
and the digit paths only run for ``b > 1`` — which is what keeps
``bits_per_cell=1`` bit-identical to the seed on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "DenseNumpyBackend",
    "FusedBitPlaneBackend",
    "ProgrammedArray",
    "backend_names",
    "engine_names",
    "make_backend",
    "plane_schedule",
    "retention_fraction",
    "validate_backend_name",
]


def retention_fraction(retention):
    """Normalize a retention argument for the decode paths.

    ``None`` *and* exactly ``1.0`` map to ``None`` — the literal
    undrifted code path.  ``z01 + 1.0 * (von - z01)`` is not bitwise
    ``von``, so a fresh drift clock must skip the drift arithmetic
    entirely rather than multiply through by one; this helper is the
    single place that gate lives.  Anything else must be a physical
    remaining-polarization fraction in ``(0, 1]``.
    """
    if retention is None:
        return None
    f = float(retention)
    if not 0.0 < f <= 1.0:
        raise ValueError(
            f"retention must be a remaining-polarization fraction in "
            f"(0, 1], got {f}")
    return None if f == 1.0 else f


def _validate_w_codes(w_codes, bits_w):
    """Signed weight codes must fit in ``bits_w - 1`` magnitude bits."""
    wmax = 2 ** (bits_w - 1) - 1
    lo, hi = int(w_codes.min(initial=0)), int(w_codes.max(initial=0))
    if lo < -wmax or hi > wmax:
        raise ValueError(
            f"weight codes span [{lo}, {hi}] which exceeds the signed "
            f"{bits_w}-bit range [{-wmax}, {wmax}]")


def _validate_x_codes(x_codes, bits_x):
    """Activation codes must be unsigned and fit in ``bits_x`` bits."""
    lo = int(x_codes.min(initial=0))
    if lo < 0:
        raise ValueError(
            f"activation codes must be unsigned, found minimum {lo}")
    xmax = 2 ** bits_x - 1
    hi = int(x_codes.max(initial=0))
    if hi > xmax:
        raise ValueError(
            f"activation codes reach {hi} which exceeds the unsigned "
            f"{bits_x}-bit range [0, {xmax}]")


def plane_schedule(w_codes, bits_w, bits_per_cell=1):
    """The ``(sign, shift)`` plane pairs ``w_codes`` occupies, in write order.

    This is the plane-skip rule of :meth:`ArrayBackend.program` factored
    out so callers that split one weight matrix across several physical
    tiles (the compiler) can pin a *shared* bit-serial schedule: a plane
    empty in one tile but stored in another must still cycle through every
    tile, because an activation-only pattern on real hardware disturbs the
    accumulation voltage even over a blank row chunk.

    ``bits_per_cell = b`` packs ``b`` magnitude bits per cell: planes are
    base-2^b digits taken at shifts ``0, b, 2b, ...`` of the magnitude,
    and the schedule entry records the *shift* (so the digital shift-add
    weight is ``2**shift`` for every ``b``).  A plane whose digits are all
    zero across the matrix is skipped, exactly like the single-bit rule.
    The top plane may be ragged — when ``bits_w - 1`` is not divisible by
    ``b`` it simply holds the leftover high bits (smaller digit range),
    which the mask extraction handles with no special casing.
    """
    w_codes = np.asarray(w_codes, dtype=np.int64)
    w_mag = np.abs(w_codes)
    digit_max = (1 << bits_per_cell) - 1
    schedule = []
    for sign, w_part in ((1.0, np.where(w_codes > 0, w_mag, 0)),
                         (-1.0, np.where(w_codes < 0, w_mag, 0))):
        for shift in range(0, bits_w - 1, bits_per_cell):  # magnitude bits
            if np.any((w_part >> shift) & digit_max):
                schedule.append((sign, shift))
    return tuple(schedule)


def _digit_vacc(s11, w_sum, n_x1, cells, gain, z01, z00, s_on, s_off):
    """Eq. (1) accumulation voltage of one multibit (digit-level) chunk.

    ``s11`` is the input-gated digit sum ``sum_i d_i x_i``, ``w_sum`` the
    plain digit sum ``sum_i d_i``, ``n_x1`` the high-input count.  Every
    backend path that handles ``bits_per_cell > 1`` — the dense reference,
    the fused LUT builder, and the fused variation path — evaluates *this
    function*, so their float64 expressions are operation-for-operation
    identical and the dense-vs-fused bit-identity guarantee carries over
    to multibit arrays.
    """
    return gain * (s11 * s_on + (w_sum - s11) * s_off
                   + n_x1 * z01 + (cells - n_x1) * z00)


@dataclass(eq=False)
class ProgrammedArray:
    """A weight matrix written onto the array: planes, counts, variation.

    Produced by :meth:`ArrayBackend.program`; treat as immutable.  All
    arrays are organized per (plane, chunk, cell, column) exactly as the
    physical array stores them: plane ``p`` holds one (sign, digit) slice
    of the weights — binary 0/1 for ``bits_per_cell=1``, base-2^b digits
    ``0 .. 2^b - 1`` otherwise — each chunk is one 8-cell row segment.

    ``w_dv`` carries the *programmed-in* per-cell threshold-variation
    voltage offsets (already scaled by the stored level: only conducting
    cells perturb the accumulation voltage, and a partially-programmed
    multibit cell perturbs in proportion to its level fraction ``d / D``).
    It is ``None`` for nominal arrays.  ``cache`` is backend-private
    precompute storage (e.g. the fused backend's transposed float32 plane
    stack).
    """

    k: int                    # logical rows of the weight matrix
    n: int                    # columns
    cells: int                # cells per row chunk
    chunks: int               # row chunks after padding k
    bits_x: int               # activation wordlength the array expects
    signs: np.ndarray         # (P,) +/-1.0 per plane
    plane_bits: np.ndarray    # (P,) magnitude-bit shift per plane
    w_planes: np.ndarray      # (P, chunks, cells, n) digit float64
    w_counts: np.ndarray      # (P, chunks, n) per-chunk digit sums
    w_dv: Optional[np.ndarray] = None   # (P, chunks, cells, n) V offsets
    bits_per_cell: int = 1    # magnitude bits stored per cell
    cache: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def n_planes(self):
        return int(self.signs.shape[0])

    @property
    def digit_max(self):
        """Largest digit a cell stores: ``2**bits_per_cell - 1``."""
        return (1 << self.bits_per_cell) - 1

    def __repr__(self):  # keep huge arrays out of tracebacks
        return (f"ProgrammedArray(k={self.k}, n={self.n}, "
                f"planes={self.n_planes}, chunks={self.chunks}, "
                f"cells={self.cells}, "
                f"bits_per_cell={self.bits_per_cell}, "
                f"variation={self.w_dv is not None})")


class ArrayBackend:
    """Base class: owns the weight-stationary programming step.

    A backend wraps a calibrated
    :class:`~repro.array.mac_unit.BitSerialMacUnit` (the source of analog
    levels, ADC thresholds, and variation sensitivities) and implements the
    activation-side compute in :meth:`matmul`.
    """

    name = "abstract"

    def __init__(self, unit):
        self.unit = unit

    # -- programming (shared by every backend) --------------------------
    def program(self, w_codes, rng=None, keep_planes=None) -> ProgrammedArray:
        """Write signed weight codes onto the array, once.

        Decomposes the magnitudes into (sign, digit) planes — binary bit
        planes for ``bits_per_cell=1``, base-2^b digit planes otherwise;
        only planes holding at least one nonzero digit occupy array area,
        mirroring the seed's plane-skip rule — pads to whole 8-cell
        chunks, precomputes per-plane digit sums, and — for configs with
        nonzero sigma — draws one threshold offset per physical cell.
        The draws happen here and only here, so the array's error pattern
        is frozen at write time exactly like real nonvolatile hardware.

        ``keep_planes`` pins the plane set to an explicit ``(sign, shift)``
        sequence (see :func:`plane_schedule`) instead of deriving it from
        ``w_codes``: the compiler uses this to keep every tile of one
        weight matrix on the matrix-wide bit-serial schedule, so a plane
        that is blank in this tile still occupies rows and still cycles —
        which is what makes a tiled program bit-identical to the same
        matrix on one spanning array.
        """
        cfg = self.unit.config
        bits_per_cell = getattr(cfg, "bits_per_cell", 1)
        digit_max = (1 << bits_per_cell) - 1
        w_codes = np.asarray(w_codes, dtype=np.int64)
        if w_codes.ndim != 2:
            raise ValueError(f"w_codes must be 2-D, got shape {w_codes.shape}")
        _validate_w_codes(w_codes, cfg.bits_w)
        k, n = w_codes.shape
        cells = cfg.cells_per_row
        k_pad = (k + cells - 1) // cells * cells
        chunks = k_pad // cells

        w_mag = np.abs(w_codes)
        parts = {1.0: np.where(w_codes > 0, w_mag, 0),
                 -1.0: np.where(w_codes < 0, w_mag, 0)}
        if keep_planes is None:
            keep_planes = plane_schedule(w_codes, cfg.bits_w, bits_per_cell)
        signs, plane_bits, planes = [], [], []
        for sign, bw in keep_planes:
            if not 0 <= bw < cfg.bits_w - 1:
                raise ValueError(
                    f"plane shift {bw} outside the signed {cfg.bits_w}-bit "
                    f"magnitude range [0, {cfg.bits_w - 2}]")
            if bw % bits_per_cell:
                # An off-grid shift would double-count magnitude bits
                # across overlapping digit extractions.
                raise ValueError(
                    f"plane shift {bw} is not aligned to the "
                    f"{bits_per_cell}-bit digit grid")
            signs.append(float(sign))
            plane_bits.append(int(bw))
            planes.append((parts[float(sign)] >> bw) & digit_max)

        if planes:
            stacked = np.stack(planes).astype(np.float64)
            if k_pad != k:
                stacked = np.pad(stacked, ((0, 0), (0, k_pad - k), (0, 0)))
            w_planes = stacked.reshape(len(planes), chunks, cells, n)
        else:
            w_planes = np.zeros((0, chunks, cells, n))
        w_counts = w_planes.sum(axis=2)

        w_dv = None
        sigma_cell = self.unit.sigma_cell
        if sigma_cell > 0 and w_planes.shape[0]:
            rng = rng or np.random.default_rng(cfg.seed)
            dv = rng.normal(0.0, sigma_cell, size=w_planes.shape)
            w_dv = (w_planes * dv if bits_per_cell == 1
                    else (w_planes / digit_max) * dv)

        return ProgrammedArray(
            k=k, n=n, cells=cells, chunks=chunks, bits_x=cfg.bits_x,
            signs=np.asarray(signs, dtype=np.float64),
            plane_bits=np.asarray(plane_bits, dtype=np.int64),
            w_planes=w_planes, w_counts=w_counts, w_dv=w_dv,
            bits_per_cell=bits_per_cell)

    def reprogram_variation(self, programmed: ProgrammedArray,
                            rng=None) -> ProgrammedArray:
        """Fresh per-cell variation draws on an already-programmed array.

        Reuses the (expensive) bit-plane decomposition and only redraws the
        threshold offsets — the Monte-Carlo shard primitive: each shard is
        "the same weights written into a different die".
        """
        sigma_cell = self.unit.sigma_cell
        if sigma_cell <= 0 or not programmed.n_planes:
            return programmed
        rng = rng or np.random.default_rng(self.unit.config.seed)
        dv = rng.normal(0.0, sigma_cell, size=programmed.w_planes.shape)
        w_dv = (programmed.w_planes * dv if programmed.bits_per_cell == 1
                else (programmed.w_planes / programmed.digit_max) * dv)
        return ProgrammedArray(
            k=programmed.k, n=programmed.n, cells=programmed.cells,
            chunks=programmed.chunks, bits_x=programmed.bits_x,
            signs=programmed.signs, plane_bits=programmed.plane_bits,
            w_planes=programmed.w_planes, w_counts=programmed.w_counts,
            w_dv=w_dv, bits_per_cell=programmed.bits_per_cell,
            # The plane decomposition is shared, so backend precompute
            # derived from it (e.g. the fused plane stack) stays valid.
            cache=programmed.cache)

    # -- activation-side helpers ----------------------------------------
    def _x_padded(self, programmed, x_codes):
        """Validated activation codes padded to the programmed chunk grid."""
        x_codes = np.asarray(x_codes, dtype=np.int64)
        if x_codes.ndim != 2:
            raise ValueError(f"x_codes must be 2-D, got shape {x_codes.shape}")
        if x_codes.shape[1] != programmed.k:
            raise ValueError(
                f"x_codes has {x_codes.shape[1]} columns but the array was "
                f"programmed for k={programmed.k}")
        _validate_x_codes(x_codes, programmed.bits_x)
        k_pad = programmed.chunks * programmed.cells
        if k_pad != programmed.k:
            x_codes = np.pad(x_codes, ((0, 0), (0, k_pad - programmed.k)))
        return x_codes

    @staticmethod
    def _active_x_bits(programmed, x_codes, active_bits):
        """Boolean mask of activation bits that cycle through the array.

        Defaults to the seed semantics — a bit absent from the whole batch
        never cycles, found with one bitwise-or over the codes.  Callers
        splitting one logical matmul across tiles (the compiler's chip)
        pass ``active_bits`` computed over the *full* activation matrix so
        every tile runs the same bit-serial schedule: a bit that is zero in
        this tile's row slice but driven elsewhere still pulses the word
        lines here, and an activation-only pulse can disturb the decode.
        """
        bits_x = programmed.bits_x
        if active_bits is not None:
            active = np.asarray(active_bits, dtype=bool)
            if active.shape != (bits_x,):
                raise ValueError(
                    f"active_bits must have shape ({bits_x},), "
                    f"got {active.shape}")
            return active
        ored = int(np.bitwise_or.reduce(x_codes, axis=None)) if x_codes.size \
            else 0
        return ((ored >> np.arange(bits_x)) & 1).astype(bool)

    # -- compute ---------------------------------------------------------
    def exact_decode(self, temp_c, retention=None):
        """Whether every nominal chunk decodes its exact count at
        ``(temp_c, retention)``.

        When it holds, a nominal (variation-free) bit-serial matmul equals
        the integer product ``x_codes @ w_codes``, and a caller may compute
        that product directly instead of running the analog model.  This
        default answers ``False``: the dense reference backend is the
        oracle and always runs the analog model.
        """
        return False

    def matmul(self, programmed: ProgrammedArray, x_codes, *, temp_c,
               active_bits=None, retention=None):
        """Bit-serial matmul of unsigned activation codes against the
        programmed array at ``temp_c``; decoded through the 27 degC ADC.

        ``active_bits`` optionally pins the activation-bit schedule (see
        :meth:`_active_x_bits`).  ``retention`` ages the stored state: a
        remaining-polarization fraction in ``(0, 1]`` shifts every
        programmed level toward its erased anchor
        (:meth:`~repro.array.mac_unit.BitSerialMacUnit.drifted_levels`)
        while the ADC keeps its fresh calibration — the decode-error
        mechanism of retention loss.  ``None`` (or exactly ``1.0``) runs
        the literal undrifted path, bit for bit."""
        raise NotImplementedError


class DenseNumpyBackend(ArrayBackend):
    """Reference kernel: one plane pair at a time (the seed's semantics).

    Each (activation-bit, weight-plane) pair materializes its own
    ``(M, chunks, N)`` count tensors, assembles the eq. (1) accumulation
    voltage, decodes, and shift-adds — exactly the loop that previously
    lived inside ``BitSerialMacUnit.matmul``, minus the per-call variation
    draws (variation now rides on the :class:`ProgrammedArray`).
    """

    name = "dense"

    def matmul(self, programmed, x_codes, *, temp_c, active_bits=None,
               retention=None):
        x_codes = self._x_padded(programmed, x_codes)
        m = x_codes.shape[0]
        chunks, cells, n = (programmed.chunks, programmed.cells,
                            programmed.n)
        result = np.zeros((m, n))
        if not programmed.n_planes:
            return result
        active_x = self._active_x_bits(programmed, x_codes, active_bits)

        unit = self.unit
        f = retention_fraction(retention)
        von, z10, z01, z00 = unit.drifted_levels(temp_c, f)
        gain = unit.config.sensing.share_gain(cells)
        sensor = unit.sensor
        multibit = programmed.bits_per_cell > 1
        if multibit:
            s_on, s_off = unit.drifted_digit_steps(temp_c, f)

        for bx in range(programmed.bits_x):
            if not active_x[bx]:
                continue
            x_plane = (x_codes >> bx) & 1
            xr = x_plane.reshape(m, chunks, cells).astype(np.float64)
            n_x1 = xr.sum(axis=2)                       # (m, chunks)
            for p in range(programmed.n_planes):
                wr = programmed.w_planes[p]             # (chunks, cells, n)
                n_w1 = programmed.w_counts[p]           # (chunks, n)
                n11 = np.einsum("mce,cen->mcn", xr, wr)
                if multibit:
                    # n11 is the input-gated digit sum, n_w1 the plain
                    # digit sum; evaluated through the shared helper so
                    # the fused LUT can never disagree bitwise.
                    vacc = _digit_vacc(
                        n11, n_w1[None, :, :], n_x1[:, :, None], cells,
                        gain, z01, z00, s_on, s_off)
                else:
                    n10 = n_w1[None, :, :] - n11
                    n01 = n_x1[:, :, None] - n11
                    n00 = (cells - n_w1[None, :, :] - n_x1[:, :, None]
                           + n11)
                    vacc = gain * (n11 * von + n10 * z10 + n01 * z01
                                   + n00 * z00)
                if programmed.w_dv is not None:
                    # A drifting cell's variation offset rides on its
                    # stored level, so it shrinks by the same fraction.
                    w_dv_p = (programmed.w_dv[p] if f is None
                              else f * programmed.w_dv[p])
                    vacc = vacc + gain * np.einsum(
                        "mce,cen->mcn", xr, w_dv_p)
                counts = sensor.decode(vacc).sum(axis=1)
                result += (programmed.signs[p] * counts.astype(np.float64)
                           * 2.0 ** (bx + programmed.plane_bits[p]))
        return result


class FusedBitPlaneBackend(ArrayBackend):
    """Fused kernel: all plane pairs in one batched matmul + one decode.

    Exploits two structural facts of the bit-serial pipeline:

    1. The only inter-cell coupling is the ``n11`` conducting-cell count
       per (activation-plane, weight-plane, chunk, column).  Stacking the
       activation planes along the row axis and the weight planes along the
       column axis turns *all* pair counts into one chunk-batched BLAS
       matmul (float32 is exact: every product and partial sum is a small
       integer).
    2. Without per-cell variation the eq. (1) accumulation voltage is an
       affine function of the integer triple ``(n11, weight-count,
       activation-count)``, each bounded by the 8-cell row — so the whole
       level-combine + ADC-decode chain is a ``(cells+1)^3`` lookup table,
       built once per temperature with exactly the dense backend's float
       expression (hence bit-identical decodes) and cached.

    Arrays with programmed-in variation carry a continuous offset, so the
    LUT shortcut does not apply; the fused path then still batches the
    count matmul and the decode but assembles voltages explicitly, matching
    the dense expression operation-for-operation.

    Work is blocked over activation rows to bound peak memory
    (``block_budget`` intermediate elements per block).
    """

    name = "fused"

    #: Max elements of the (bits_x, M_block, P, chunks, n) intermediate.
    #: The variation path materializes several float64 tensors of that
    #: shape at once, so it gets a proportionally smaller budget.
    block_budget = 16 * 2 ** 20
    block_budget_variation = 4 * 2 ** 20

    def __init__(self, unit):
        super().__init__(unit)
        #: float(temp_c) -> flat LUT for the undrifted decode;
        #: (float(temp_c), retention) -> the drift-aged twin.  Keeping
        #: the undrifted key shape unchanged means pre-drift cache users
        #: (temperature sweeps) hit exactly the entries they always did.
        self._lut_cache = {}
        #: Same keys as ``_lut_cache`` -> :meth:`exact_decode` verdict.
        self._exact_cache = {}

    # -- cached per-temperature decode table -----------------------------
    @staticmethod
    def _lut_key(temp_c, f):
        """Cache key of the decode at ``temp_c`` and retention fraction
        ``f`` (already normalized by :func:`retention_fraction`)."""
        return float(temp_c) if f is None else (float(temp_c), f)

    def decode_lut(self, temp_c, retention=None):
        """Decoded MAC count for every ``(n11, n_w1, n_x1)`` triple.

        Built with the same float expression the dense backend evaluates
        per element, so a LUT lookup and a dense decode can never disagree.

        For multibit units the triple generalizes to ``(S11, W, n_x1)``
        with ``S11`` the input-gated digit sum and ``W`` the plain digit
        sum, each spanning ``0 .. cells * digit_max`` — the eq. (1)
        voltage stays affine in those three integers, so the LUT shortcut
        survives MLC encoding unchanged (the table just grows from
        ``(cells+1)^3`` to ``(cells*D+1)^2 * (cells+1)`` entries).

        ``retention`` stays affine too — drift shifts the *level
        constants*, not the count structure — so an aged array keeps the
        whole LUT fast path; each distinct ``(temp_c, retention)`` pair
        caches its own table.
        """
        f = retention_fraction(retention)
        key = self._lut_key(temp_c, f)
        lut = self._lut_cache.get(key)
        if lut is None:
            cfg = self.unit.config
            cells = cfg.cells_per_row
            bits_per_cell = getattr(cfg, "bits_per_cell", 1)
            von, z10, z01, z00 = self.unit.drifted_levels(temp_c, f)
            gain = cfg.sensing.share_gain(cells)
            if bits_per_cell == 1:
                grid = np.arange(cells + 1, dtype=np.float64)
                n11 = grid[:, None, None]
                n_w1 = grid[None, :, None]
                n_x1 = grid[None, None, :]
                n10 = n_w1 - n11
                n01 = n_x1 - n11
                n00 = cells - n_w1 - n_x1 + n11
                vacc = gain * (n11 * von + n10 * z10 + n01 * z01
                               + n00 * z00)
            else:
                digit_max = (1 << bits_per_cell) - 1
                s_on, s_off = self.unit.drifted_digit_steps(temp_c, f)
                dgrid = np.arange(cells * digit_max + 1, dtype=np.float64)
                s11 = dgrid[:, None, None]
                w_sum = dgrid[None, :, None]
                n_x1 = np.arange(cells + 1,
                                 dtype=np.float64)[None, None, :]
                vacc = _digit_vacc(s11, w_sum, n_x1, cells, gain,
                                   z01, z00, s_on, s_off)
            lut = self.unit.sensor.decode(vacc).astype(np.int16).ravel()
            self._lut_cache[key] = lut
        return lut

    def exact_decode(self, temp_c, retention=None):
        """``True`` iff :meth:`decode_lut` is the identity on every
        reachable triple: it returns ``S11`` for each ``(S11, W, n_x1)``
        with ``S11 <= W``, ``S11 <= D * n_x1`` and
        ``W - S11 <= D * (cells - n_x1)``, ``D = 2**bits_per_cell - 1``
        (``n_x1`` high inputs gate a digit sum of at most ``D`` each, the
        other ``cells - n_x1`` cells hold the rest of ``W``).  Unreachable
        addresses are never gathered, so their entries do not matter.

        The verdict is cached per ``(temp_c, retention)`` beside the LUT.
        It is a property of the nominal decode only; arrays with
        programmed-in variation decode explicitly whatever it says.
        """
        f = retention_fraction(retention)
        key = self._lut_key(temp_c, f)
        exact = self._exact_cache.get(key)
        if exact is None:
            cells = self.unit.config.cells_per_row
            d = (1 << getattr(self.unit.config, "bits_per_cell", 1)) - 1
            s11 = np.arange(cells * d + 1)[:, None, None]
            w_sum = np.arange(cells * d + 1)[None, :, None]
            n_x1 = np.arange(cells + 1)[None, None, :]
            reachable = ((s11 <= w_sum) & (s11 <= d * n_x1)
                         & (w_sum - s11 <= d * (cells - n_x1)))
            lut = self.decode_lut(temp_c, f).reshape(reachable.shape)
            exact = bool(np.all((lut == s11) | ~reachable))
            self._exact_cache[key] = exact
        return exact

    # -- fused plane stacks ----------------------------------------------
    @staticmethod
    def _index_dtype(cells, digit_max=1):
        """Smallest int dtype holding every LUT address.

        The flat LUT spans ``(cells*digit_max + 1)^2 * (cells + 1)``
        entries (``(cells+1)^3`` in the single-bit case, identical
        arithmetic).
        """
        top = (cells * digit_max + 1) ** 2 * (cells + 1) - 1
        return np.int16 if top <= np.iinfo(np.int16).max else np.int32

    def _weight_stack(self, programmed):
        """Backend-private precompute on the programmed array (cached)."""
        stack = programmed.cache.get("fused")
        if stack is None:
            p, chunks, cells, n = programmed.w_planes.shape
            dtype = self._index_dtype(cells, programmed.digit_max)
            # (chunks, cells, P*n) float32 for the chunk-batched matmul.
            # Digits up to 7 (and their chunk partial sums) are exactly
            # representable, so float32 BLAS stays exact for every b.
            w32 = np.ascontiguousarray(
                programmed.w_planes.transpose(1, 2, 0, 3)
                .reshape(chunks, cells, p * n), dtype=np.float32)
            # Digit-sum index term of the LUT address, premultiplied by
            # the W-axis stride (cells + 1 for every bits_per_cell).
            wc9 = (programmed.w_counts.astype(dtype)
                   * dtype(programmed.cells + 1))
            stack = {"w32": w32, "wc9": wc9, "idx_dtype": dtype}
            if programmed.bits_per_cell > 1:
                # Multibit fast path: fold the whole flat LUT address
                # into the BLAS by augmenting the cell axis with two
                # constant inputs — ``idx = S11 * stride + wc9 + n_x1``
                # comes straight out of one sgemm.  Exact in float32:
                # the largest address is (cells*D + 1)^2 * (cells+1) - 1
                # (29240 at b = 3, cells = 8), far below 2^24.  The
                # single-bit path keeps the seed's separate integer
                # index arithmetic, byte for byte.
                stride = ((cells * programmed.digit_max + 1)
                          * (cells + 1))
                w_aug = np.empty((chunks, cells + 2, p * n), np.float32)
                w_aug[:, :cells] = w32 * np.float32(stride)
                w_aug[:, cells] = (wc9.transpose(1, 0, 2)
                                   .reshape(chunks, p * n)
                                   .astype(np.float32))
                w_aug[:, cells + 1] = 1.0
                stack["w_aug"] = w_aug
            programmed.cache["fused"] = stack
        return stack

    def _x_stack(self, programmed, x_codes):
        """Activation bit planes for a row block: (bits_x, Mb, chunks, cells).

        Called per row block (not on the whole batch) so the int64 plane
        intermediate stays inside the block memory budget.
        """
        bits_x = programmed.bits_x
        m = x_codes.shape[0]
        shifts = np.arange(bits_x, dtype=np.int64)
        planes = ((x_codes[:, :, None] >> shifts) & 1)      # (Mb, k_pad, Bx)
        planes = planes.reshape(m, programmed.chunks, programmed.cells,
                                bits_x)
        x32 = np.ascontiguousarray(planes.transpose(3, 0, 1, 2),
                                   dtype=np.float32)
        n_x1 = np.ascontiguousarray(
            planes.sum(axis=2).transpose(2, 0, 1))          # (Bx, Mb, chunks)
        return x32, n_x1

    def _pair_counts(self, programmed, x32_block, w32):
        """``n11`` for every plane pair via one chunk-batched matmul.

        Returns float32 of shape (Bx, Mb, P, chunks, n); every value is an
        exactly-representable small integer.
        """
        bx, mb, chunks, cells = x32_block.shape
        p, n = programmed.n_planes, programmed.n
        xt = np.ascontiguousarray(
            x32_block.transpose(2, 0, 1, 3)).reshape(chunks, bx * mb, cells)
        prod = np.matmul(xt, w32)                   # (chunks, Bx*Mb, P*n)
        return (prod.reshape(chunks, bx, mb, p, n)
                .transpose(1, 2, 3, 0, 4))

    # -- compute ---------------------------------------------------------
    def matmul(self, programmed, x_codes, *, temp_c, active_bits=None,
               retention=None):
        f = retention_fraction(retention)
        x_codes = self._x_padded(programmed, x_codes)
        m = x_codes.shape[0]
        result = np.zeros((m, programmed.n))
        if not programmed.n_planes or m == 0:
            return result

        stack = self._weight_stack(programmed)
        bits_x = programmed.bits_x
        active_x = self._active_x_bits(programmed, x_codes, active_bits)
        if not active_x.any():
            return result

        # Shift-add weights for the final plane reduction; inactive
        # activation bits are zeroed rather than branched over.
        xw = np.where(active_x, 2.0 ** np.arange(bits_x), 0.0)
        pw = programmed.signs * 2.0 ** programmed.plane_bits
        scale = xw[:, None] * pw[None, :]            # (Bx, P)

        per_row = (bits_x * programmed.n_planes * programmed.chunks
                   * programmed.n)
        budget = (self.block_budget if programmed.w_dv is None
                  else self.block_budget_variation)
        block = max(1, int(budget // max(per_row, 1)))
        for m0 in range(0, m, block):
            m1 = min(m0 + block, m)
            x32, n_x1 = self._x_stack(programmed, x_codes[m0:m1])
            if programmed.w_dv is not None:
                counts = self._decode_variation(
                    programmed, stack, x32, n_x1, temp_c, f)
            elif programmed.bits_per_cell > 1:
                counts = self._decode_nominal_multibit(
                    programmed, stack, x32, temp_c, f)
            else:
                counts = self._decode_nominal(
                    programmed, stack, x32, n_x1, temp_c, f)
            # counts: (Bx, Mb, P, n) exact integers -> shift-add reduction.
            result[m0:m1] = np.tensordot(scale, counts, axes=([0, 1], [0, 2]))
        return result

    def _decode_nominal(self, programmed, stack, x32_block, n_x1_block,
                        temp_c, retention=None):
        """Integer LUT decode: no float arithmetic in the hot path.

        The flat address is ``S11 * s11_stride + W * (cells+1) + n_x1``
        with ``s11_stride = (cells*digit_max + 1) * (cells + 1)`` — for
        single-bit arrays that is exactly the seed's
        ``n11 * (cells+1)^2 + wc9 + n_x1`` arithmetic, value for value.
        Drift only swaps the LUT (the addresses are pure counts).
        """
        lut = self.decode_lut(temp_c, retention)
        dtype = stack["idx_dtype"]
        n11 = self._pair_counts(programmed, x32_block, stack["w32"])
        idx = n11.astype(dtype)
        idx *= dtype((programmed.cells * programmed.digit_max + 1)
                     * (programmed.cells + 1))
        idx += stack["wc9"][None, None, :, :, :]
        idx += n_x1_block.astype(dtype)[:, :, None, :, None]
        decoded = lut[idx]
        return decoded.sum(axis=3, dtype=np.int64)

    def _decode_nominal_multibit(self, programmed, stack, x32_block,
                                 temp_c, retention=None):
        """Multibit LUT decode with the address folded into the BLAS.

        The augmented matmul (see ``_weight_stack``) emits the complete
        flat LUT address ``S11 * stride + W * (cells+1) + n_x1`` per
        plane pair, so the hot path is one sgemm, one contiguous int
        cast, one contiguous gather, and one chunk-axis reduction — no
        strided integer arithmetic over the big intermediate.  Decoded
        values are identical to :meth:`_decode_nominal` (same LUT, same
        integer addresses); only the evaluation order of the exact
        integer sums differs, which float32 cannot observe below 2^24.
        """
        lut = self.decode_lut(temp_c, retention)
        bx, mb, chunks, cells = x32_block.shape
        p, n = programmed.n_planes, programmed.n
        xt = np.ascontiguousarray(
            x32_block.transpose(2, 0, 1, 3)).reshape(chunks, bx * mb,
                                                     cells)
        x_aug = np.empty((chunks, bx * mb, cells + 2), np.float32)
        x_aug[:, :, :cells] = xt
        x_aug[:, :, cells] = 1.0
        x_aug[:, :, cells + 1] = xt.sum(axis=2)
        idx = np.matmul(x_aug, stack["w_aug"]).astype(stack["idx_dtype"])
        decoded = lut[idx]                      # (chunks, Bx*Mb, P*n)
        counts = decoded.reshape(chunks, bx * mb, p, n).sum(
            axis=0, dtype=np.int64)
        return counts.reshape(bx, mb, p, n)

    def _decode_variation(self, programmed, stack, x32_block, n_x1_block,
                          temp_c, retention=None):
        """Explicit-voltage decode for arrays with programmed-in variation.

        Operation-for-operation the dense backend's expression, evaluated
        over the full plane-pair stack at once.
        """
        unit = self.unit
        von, z10, z01, z00 = unit.drifted_levels(temp_c, retention)
        cells = programmed.cells
        gain = unit.config.sensing.share_gain(cells)

        n11 = self._pair_counts(programmed, x32_block,
                                stack["w32"]).astype(np.float64)
        n_w1 = programmed.w_counts[None, None, :, :, :]     # (1,1,P,c,n)
        n_x1 = n_x1_block.astype(np.float64)[:, :, None, :, None]
        if programmed.bits_per_cell > 1:
            s_on, s_off = unit.drifted_digit_steps(temp_c, retention)
            vacc = _digit_vacc(n11, n_w1, n_x1, cells, gain,
                               z01, z00, s_on, s_off)
        else:
            n10 = n_w1 - n11
            n01 = n_x1 - n11
            n00 = cells - n_w1 - n_x1 + n11
            vacc = gain * (n11 * von + n10 * z10 + n01 * z01 + n00 * z00)
        # Variation offsets shrink with the stored level they perturb —
        # same per-element scaling the dense backend applies.
        w_dv = (programmed.w_dv if retention is None
                else retention * programmed.w_dv)
        vacc = vacc + gain * np.einsum(
            "xmce,pcen->xmpcn", x32_block.astype(np.float64), w_dv)
        return unit.sensor.decode(vacc).sum(axis=3, dtype=np.int64)


#: Registry of selectable backends, keyed by CLI/config name.  This dict is
#: the single source of truth for backend names: the CLI ``--backend``
#: choices, :class:`~repro.runtime.context.RunContext` validation, and the
#: executor/compiler configs all derive from it via :func:`backend_names` /
#: :func:`validate_backend_name` instead of carrying their own string tables.
BACKENDS = {
    DenseNumpyBackend.name: DenseNumpyBackend,
    FusedBitPlaneBackend.name: FusedBitPlaneBackend,
}


def backend_names():
    """Registered backend names, sorted — what CLIs/configs offer."""
    return tuple(sorted(BACKENDS))


def validate_backend_name(name):
    """Return ``name`` if registered, else raise ``ValueError`` listing
    the valid choices.  Shared by every config that stores a backend name,
    so the error message (and the choice set) can never drift."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r}; choices: {sorted(BACKENDS)}")
    return name


#: Canonical circuit-engine name table.  It lives here (not in
#: ``repro.array.row``, which owns the dispatch) because this module is
#: import-light: the CLI and ``RunContext`` can derive their choices
#: without pulling in the whole circuit stack.  ``row.ROW_ENGINES`` is
#: this same tuple, so dispatch and choices cannot drift.
ENGINE_NAMES = ("scalar", "batched")


def engine_names():
    """Registered circuit-engine names, sorted — what CLIs/configs offer."""
    return tuple(sorted(ENGINE_NAMES))


def make_backend(name, unit) -> ArrayBackend:
    """Instantiate the backend registered under ``name`` for ``unit``."""
    validate_backend_name(name)
    return BACKENDS[name](unit)
