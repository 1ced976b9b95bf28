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
    repeated temperature sweeps nearly free.  Arrays with programmed-in
    variation serve through a *certified guard band* where the nominal
    decode is exact: every (plane, chunk, column) entry whose worst-case
    variation offset stays inside its nominal decode margin provably
    decodes its exact count, so the tile runs as one float64 GEMM of its
    weight codes plus integer corrections of only the other entries —
    read from a per-input-pattern table at undrifted keys, decoded
    explicitly per instance otherwise.

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
planes to ``ceil((bits_w - 1) / b)`` digit planes.  The fused backend
decodes a nominal multibit tile once per distinct chunk input pattern
rather than once per (activation bit, row): the plane count multiplies
only the distinct patterns' decode, and batches whose im2col rows repeat
patterns (most conv layers) decode far fewer LUT addresses than they
have instances.  Because the digit expression reduces *algebraically but
not float-bitwise* to the binary expression at ``b = 1``, the single-bit
code paths below are kept literally unchanged and the digit paths only
run for ``b > 1`` — which is what keeps ``bits_per_cell=1`` bit-identical
to the seed on every backend.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "DecodeRecord",
    "DenseNumpyBackend",
    "FusedBitPlaneBackend",
    "GuardBand",
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


def _cell_offsets(xb, dv, n):
    """Variation offsets ``sum_e xb[..., i, e] * dv[i, e]`` of gathered
    entries, summed in the order the backends' ``einsum`` over a tile of
    ``n`` columns sums them, so the float64 result is bitwise the same.

    Over a tile of two or more columns that ``einsum`` runs the column
    axis innermost and accumulates cell by cell from zero; over a single
    column it reduces the contiguous cell axis in one SIMD pass, which an
    ``einsum`` over this contiguous cell axis reproduces.
    """
    if n == 1:
        return np.einsum("...ie,ie->...i", xb, dv)
    offset = np.zeros(xb.shape[:-1])
    for e in range(xb.shape[-1]):
        offset += xb[..., e] * dv[:, e]
    return offset


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


@dataclass(eq=False)
class DecodeRecord:
    """Everything the fused backend derives from the nominal decode at one
    ``(temp_c, retention)``, built once from one voltage grid.

    ``margin[0][W]`` / ``margin[1][W]`` are the smallest gaps from the
    nominal eq. (1) voltage up / down to the edges of its decode bucket
    (``thr[d-1] < v <= thr[d]``) over every reachable ``(S11, n_x1)`` with
    stored digit sum ``W``, less a float64 slack (:attr:`SLACK_REL`,
    :attr:`SLACK_V`); an open edge is ``inf``.  ``guard_bands`` caches
    :class:`GuardBand` certificates per programmed tile at this key.
    """

    #: Float64 slack taken off every margin: relative to the largest
    #: threshold magnitude, plus an absolute floor.  Rounding in the
    #: explicit decode is ~1e-16 relative, far inside it.
    SLACK_REL = 1e-9
    SLACK_V = 1e-12

    lut: np.ndarray           # flat int16 decode of every LUT address
    exact: bool               # identity on every reachable triple
    margin: np.ndarray        # (2, cells * D + 1) up/down headroom per W
    guard_bands: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, repr=False)


@dataclass(eq=False)
class CorrectionTable:
    """Per-pattern corrections of a guard band's uncertified entries.

    With fixed thresholds and a frozen variation draw, an entry's decoded
    count depends only on the ``cells`` input bits of its chunk, so the
    correction ``sum_planes sign * 2**shift * (decode - S11)`` of one
    (column, chunk) pair is a function of a ``2**cells`` pattern id.
    ``values`` holds it per pair and pattern (pairs that never correct
    are dropped).  ``rows`` lists the tile rows those pairs read — the
    cells of their chunks, less the zero padding of a ragged last chunk —
    and ``pick`` maps their activation bits to every pair's pattern id
    (``2**e`` at cell ``e`` of the pair's chunk), offset into ``values``
    by ``offsets``.  Pairs are ordered by column.
    """

    values: np.ndarray        # (pairs * 2**cells,) float64, pair-major
    rows: np.ndarray          # (r,) tile rows the pairs read
    pick: np.ndarray          # (r, pairs) float64
    offsets: np.ndarray       # (pairs,) float64 first value of each pair
    starts: np.ndarray        # first pair of each column group
    cols: np.ndarray          # column of each group

    def corrections(self, x_codes, bits):
        """``(M, cols.size)`` corrections of activation codes ``x_codes``
        (the tile's ``k`` columns, optionally zero-padded to whole chunks)
        over the active ``bits`` (ascending): a pattern-id GEMM, one
        gather, a shift-sum over the bits and a per-column ``reduceat``.
        Every value is an integer below ``2**53``, so each step is
        exact."""
        m = x_codes.shape[0]
        if not (m and bits.size and self.cols.size):
            return np.zeros((m, self.cols.size))
        # Narrow codes shift several times faster; every bit below 16
        # survives the cast.
        dtype = np.uint16 if bits[-1] < 16 else np.int64
        codes = x_codes[:, self.rows].astype(dtype)
        planes = (codes[None] >> bits.astype(dtype)[:, None, None]) & 1
        ids = planes.reshape(bits.size * m, -1).astype(np.float64) @ self.pick
        ids += self.offsets
        fixes = np.take(self.values, ids.astype(np.intp))
        fixes = np.ldexp(1.0, bits) @ fixes.reshape(bits.size, -1)
        return np.add.reduceat(fixes.reshape(m, -1), self.starts, axis=1)


@dataclass(eq=False)
class GuardBand:
    """Certified guard band of one tile with variation at one key.

    An entry (plane, chunk, column) is *certified* when both worst-case
    variation offsets, ``gain * sum(max(f * w_dv, 0))`` upward and
    ``gain * sum(max(-f * w_dv, 0))`` downward over its cells, fall
    strictly below the entry's nominal margin at its digit sum: then it
    decodes ``S11`` whatever the activations, and the tile's exact product
    ``x_codes @ W_tile`` already holds its contribution.  The uncertified
    entries only add integer *corrections* (decoded minus exact count) to
    that product.  The arrays below describe them, ordered by column, for
    the explicit per-instance decode; ``table`` holds the same corrections
    per input pattern where the band was built for an undrifted key and
    the table fits the variation block budget (``None`` otherwise).  A
    band is never modified once built.
    """

    certified: np.ndarray     # (P, chunks, n) bool
    chunk: np.ndarray         # (u,) chunk of each uncertified entry
    digits: np.ndarray        # (u, cells) float64 stored digits
    dv: np.ndarray            # (u, cells) retention-scaled offsets
    w_sum: np.ndarray         # (u,) float64 digit sums
    scale: np.ndarray         # (u,) int64 sign * 2**shift of the plane
    starts: np.ndarray        # first entry of each column group
    cols: np.ndarray          # column of each group
    table: Optional[CorrectionTable] = None

    @property
    def n_uncertified(self):
        return int(self.chunk.size)


class _LRU:
    """A small thread-safe least-recently-used map."""

    def __init__(self, maxsize):
        self.maxsize = int(maxsize)
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def setdefault(self, key, value):
        with self._lock:
            value = self._data.setdefault(key, value)
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return value

    def keys(self):
        with self._lock:
            return list(self._data)

    def __len__(self):
        return len(self._data)


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

    def guard_band(self, programmed, temp_c, retention=None):
        """The certified guard band ``programmed`` decodes under at
        ``(temp_c, retention)``, or ``None`` when it runs no guard band.

        This default answers ``None``: the dense reference backend decodes
        every entry explicitly.
        """
        return None

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
       expression (hence bit-identical decodes) and cached.  A chunk's
       decoded count then depends only on its input bit pattern, so
       multibit tiles (:meth:`_decode_patterns`) decode each distinct
       (chunk, pattern) of a matmul once and shift-add the result back
       over every (activation bit, row) that drove it.

    Arrays with programmed-in variation carry a continuous offset, so the
    LUT shortcut does not apply.  Where the nominal decode is exact, the
    certified guard band (:meth:`guard_band`) serves the tile as the
    exact GEMM of its weight codes plus :meth:`corrections` of the
    entries whose worst-case offset can leave their nominal margin.  At
    an undrifted key those come from a per-pattern
    :class:`CorrectionTable` built once with the band (the second fact
    again: with the variation draw frozen, an entry's decode depends only
    on its chunk's input pattern); at drifted keys and on tiles too wide
    to tabulate, from an explicit per-instance decode.  Where the gate
    fails, the fused path assembles every voltage explicitly.  Every
    explicit voltage matches the dense expression
    operation-for-operation.

    Work is blocked over activation rows (over chunks on the multibit
    pattern decode) to bound peak memory (``block_budget`` intermediate
    elements per block).
    """

    name = "fused"

    #: Max elements of the (bits_x, M_block, P, chunks, n) intermediate
    #: (of each per-block intermediate on the pattern decode).
    #: The variation path materializes several float64 tensors of that
    #: shape at once, so it gets a proportionally smaller budget, which
    #: also bounds a guard band's correction-table build (``2**cells``
    #: patterns times the uncertified entries' cells).
    block_budget = 16 * 2 ** 20
    block_budget_variation = 4 * 2 ** 20
    #: Drifted ``(temp_c, retention)`` keys kept cached.  A drifting chip
    #: reads a new retention every batch, so these keys rarely repeat
    #: beyond one forward pass; undrifted keys are few and stay cached.
    drifted_keys = 32

    def __init__(self, unit):
        super().__init__(unit)
        #: float(temp_c) -> :class:`DecodeRecord` of the undrifted decode.
        #: Keeping the undrifted key shape unchanged means pre-drift cache
        #: users (temperature sweeps) hit exactly the entries they always
        #: did.
        self._records = {}
        #: (float(temp_c), retention) -> the drift-aged records, bounded.
        #: Evicting a record drops its per-tile guard bands with it.
        self._drifted = _LRU(self.drifted_keys)
        #: Guards the per-record guard-band maps, which threads share.
        self._lock = threading.Lock()

        # What every record reads off its voltage grid, fixed per unit:
        # the reachable ``(S11, W, n_x1)`` triples, listed by ``W`` — a
        # chunk's ``n_x1`` high inputs gate a digit sum of at most ``D``
        # each, its other ``cells - n_x1`` cells hold the rest of ``W``;
        # unreachable addresses are never gathered — and the edges of
        # each decode bucket, ``thr[d-1] < v <= thr[d]``.
        cells = unit.config.cells_per_row
        d = (1 << getattr(unit.config, "bits_per_cell", 1)) - 1
        w, s11, n_x1 = np.ogrid[:cells * d + 1, :cells * d + 1, :cells + 1]
        w, s11, n_x1 = np.nonzero((s11 <= w) & (s11 <= d * n_x1)
                                  & (w - s11 <= d * (cells - n_x1)))
        self._reachable = (
            (s11 * (cells * d + 1) + w) * (cells + 1) + n_x1,   # LUT index
            s11, np.flatnonzero(np.diff(w, prepend=-1)))        # W groups
        thr = unit.sensor.thresholds
        self._edges = np.concatenate(([-np.inf], thr, [np.inf]))
        self._slack = (DecodeRecord.SLACK_REL * float(np.abs(thr).max())
                       + DecodeRecord.SLACK_V)

    # -- cached per-temperature decode table -----------------------------
    @staticmethod
    def _lut_key(temp_c, f):
        """Cache key of the decode at ``temp_c`` and retention fraction
        ``f`` (already normalized by :func:`retention_fraction`)."""
        return float(temp_c) if f is None else (float(temp_c), f)

    def _record(self, temp_c, f):
        """The cached :class:`DecodeRecord` at ``temp_c`` and normalized
        retention fraction ``f``, built on first use."""
        key = self._lut_key(temp_c, f)
        cache = self._records if f is None else self._drifted
        record = cache.get(key)
        if record is None:
            record = cache.setdefault(key, self._build_record(temp_c, f))
        return record

    def _nominal_vacc(self, s11, w_sum, n_x1, temp_c, f):
        """Nominal eq. (1) voltage of chunks with counts ``(S11, W, n_x1)``
        (``n11`` and ``n_w1`` on 1-bit cells) at ``temp_c`` and retention
        fraction ``f`` — the dense backend's float expression, so the
        LUT, the variation decode and the guard band agree with it bit
        for bit."""
        unit = self.unit
        cells = unit.config.cells_per_row
        gain = unit.config.sensing.share_gain(cells)
        von, z10, z01, z00 = unit.drifted_levels(temp_c, f)
        if getattr(unit.config, "bits_per_cell", 1) > 1:
            s_on, s_off = unit.drifted_digit_steps(temp_c, f)
            return _digit_vacc(s11, w_sum, n_x1, cells, gain,
                               z01, z00, s_on, s_off)
        n10 = w_sum - s11
        n01 = n_x1 - s11
        n00 = cells - w_sum - n_x1 + s11
        return gain * (s11 * von + n10 * z10 + n01 * z01 + n00 * z00)

    def _build_record(self, temp_c, f):
        """Decode every ``(S11, W, n_x1)`` address once: the LUT, the exact
        verdict and the per-``W`` margins all come from this voltage grid."""
        cells = self.unit.config.cells_per_row
        d = (1 << getattr(self.unit.config, "bits_per_cell", 1)) - 1
        s11 = np.arange(cells * d + 1, dtype=np.float64)[:, None, None]
        n_x1 = np.arange(cells + 1, dtype=np.float64)[None, None, :]
        vacc = self._nominal_vacc(s11, s11.reshape(1, -1, 1), n_x1,
                                  temp_c, f).ravel()
        lut = self.unit.sensor.decode(vacc)
        index, s11, groups = self._reachable
        v, got = vacc[index], lut[index]
        edges = self._edges
        margin = np.stack([np.minimum.reduceat(edges[got + 1] - v, groups),
                           np.minimum.reduceat(v - edges[got], groups)])
        return DecodeRecord(lut=lut.astype(np.int16),
                            exact=bool(np.array_equal(got, s11)),
                            margin=margin - self._slack)

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
        return self._record(temp_c, retention_fraction(retention)).lut

    def exact_decode(self, temp_c, retention=None):
        """``True`` iff :meth:`decode_lut` is the identity on every
        reachable triple: it returns ``S11`` for each ``(S11, W, n_x1)``
        with ``S11 <= W``, ``S11 <= D * n_x1`` and
        ``W - S11 <= D * (cells - n_x1)``, ``D = 2**bits_per_cell - 1``
        (``n_x1`` high inputs gate a digit sum of at most ``D`` each, the
        other ``cells - n_x1`` cells hold the rest of ``W``).  Unreachable
        addresses are never gathered, so their entries do not matter.

        The verdict is cached per ``(temp_c, retention)`` in the same
        :class:`DecodeRecord` as the LUT.  It is a property of the nominal
        decode; arrays with programmed-in variation build on it through
        :meth:`guard_band`.
        """
        return self._record(temp_c, retention_fraction(retention)).exact

    # -- certified guard band --------------------------------------------
    def guard_band(self, programmed, temp_c, retention=None):
        """The certified :class:`GuardBand` of a tile with programmed-in
        variation at ``(temp_c, retention)``, or ``None``.

        ``None`` on nominal tiles (they decode through the LUT) and where
        :meth:`exact_decode` fails, which leaves the explicit
        :meth:`_decode_variation` path in charge.  The band is cached per
        tile in the key's :class:`DecodeRecord` and held weakly, so a
        replica with its own variation draw gets its own certificate and
        a dropped chip frees its bands.  (``ProgrammedArray.cache`` is
        shared between such replicas, so it cannot hold them.)
        """
        if programmed.w_dv is None:
            return None
        f = retention_fraction(retention)
        record = self._record(temp_c, f)
        if not record.exact:
            return None
        with self._lock:
            band = record.guard_bands.get(programmed)
        if band is None:
            band = self._certify(programmed, record.margin, temp_c, f)
            with self._lock:
                band = record.guard_bands.setdefault(programmed, band)
        return band

    def _certify(self, programmed, margin, temp_c, f):
        """Build the :class:`GuardBand` of ``programmed`` against the
        per-``W`` nominal ``margin`` at ``temp_c`` and retention fraction
        ``f``.

        An undrifted key (``f is None``) is reused by every later batch
        at its temperature, so its band also gets the per-pattern
        :class:`CorrectionTable` when the build (``2**cells`` patterns
        times the uncertified entries' cells) fits
        ``block_budget_variation``.  A drifted key lives for about one
        batch, which would not repay the build.
        """
        cells = programmed.cells
        gain = self.unit.config.sensing.share_gain(cells)
        # The same retention scaling the explicit decode applies.
        dv = (programmed.w_dv if f is None else f * programmed.w_dv)
        w_sum = programmed.w_counts.astype(np.intp)
        rise = gain * np.maximum(dv, 0.0).sum(axis=2)
        fall = gain * np.maximum(-dv, 0.0).sum(axis=2)
        certified = (rise < margin[0][w_sum]) & (fall < margin[1][w_sum])

        # Uncertified entries in column order, grouped per column.
        col, plane, chunk = np.nonzero(~certified.transpose(2, 0, 1))
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        band = GuardBand(
            certified=certified, chunk=chunk,
            digits=np.ascontiguousarray(
                programmed.w_planes[plane, chunk, :, col]),
            dv=np.ascontiguousarray(dv[plane, chunk, :, col]),
            w_sum=programmed.w_counts[plane, chunk, col],
            scale=(programmed.signs[plane].astype(np.int64)
                   << programmed.plane_bits[plane]),
            starts=starts, cols=col[starts])
        if (f is None and (band.n_uncertified * cells << cells)
                <= self.block_budget_variation):
            band.table = self._correction_table(programmed, band, col,
                                                temp_c)
        return band

    def _correction_table(self, programmed, band, col, temp_c):
        """The :class:`CorrectionTable` of an undrifted ``band``.

        Runs :meth:`_decode_uncertified`'s float expressions — the
        nominal voltage, then the variation offset summed in the tile's
        column order (:func:`_cell_offsets`) — on every input pattern of
        every uncertified entry, so each table value is bitwise the
        per-instance decode's.  Entries fold per (column, chunk) pair.
        """
        cells, chunks = programmed.cells, programmed.chunks
        gain = self.unit.config.sensing.share_gain(cells)
        patterns = (np.arange(1 << cells)[:, None] >> np.arange(cells)) & 1
        xb = np.repeat(patterns[:, None, :], band.n_uncertified,
                       axis=1).astype(np.float64)          # (2**cells, u, e)
        n11 = np.einsum("qie,ie->qi", xb, band.digits)
        vacc = self._nominal_vacc(n11, band.w_sum, xb.sum(axis=2), temp_c,
                                  None)
        vacc = vacc + gain * _cell_offsets(xb, band.dv, programmed.n)
        fixes = ((self.unit.sensor.decode(vacc) - n11.astype(np.int64))
                 * band.scale)                             # (2**cells, u)

        # Fold the planes per (column, chunk) pair, in column order, and
        # drop the pairs that never correct.
        pairs, entry_pair = np.unique(col * chunks + band.chunk,
                                      return_inverse=True)
        values = np.zeros((pairs.size, 1 << cells), dtype=np.int64)
        np.add.at(values, entry_pair, fixes.T)
        keep = values.any(axis=1)
        values, pairs = values[keep], pairs[keep]
        pair_col, pair_chunk = np.divmod(pairs, chunks)
        pick = np.zeros((chunks, cells, pairs.size))
        pick[pair_chunk, :, np.arange(pairs.size)] = np.ldexp(
            1.0, np.arange(cells))
        pick = pick.reshape(chunks * cells, pairs.size)
        # Padding cells always read zero: no row, no pattern bit.
        rows = np.flatnonzero(pick.any(axis=1))
        rows = rows[rows < programmed.k]
        starts = np.flatnonzero(np.diff(pair_col, prepend=-1))
        return CorrectionTable(
            values=values.astype(np.float64).ravel(), rows=rows,
            pick=pick[rows],
            offsets=np.arange(pairs.size, dtype=np.float64) * (1 << cells),
            starts=starts, cols=pair_col[starts])

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
            levels = cells * programmed.digit_max + 1   # S11 or W values
            stride = levels * (cells + 1)
            if (programmed.bits_per_cell > 1
                    and max(1 << cells, levels * stride) <= 2 ** 24):
                # Multibit pattern decode (:meth:`_decode_patterns`):
                # each distinct chunk input pattern, augmented with two
                # constant inputs, gets its whole flat LUT address
                # ``S11 * stride + wc9 + n_x1`` per (column, plane) out
                # of one sgemm against this stack.  Columns are ordered
                # (n, P) so the plane fold reduces the contiguous axis.
                # Built only where a chunk's pattern table (2**cells
                # entries) fits the default block budget and every
                # address (29240 at most for b = 3, cells = 8) is exact
                # in float32: at most 24 cells per row.  Wider multibit
                # tiles, like the single-bit ones, take the integer index
                # arithmetic of :meth:`_decode_nominal`.
                w_aug = np.empty((chunks, cells + 2, n, p), np.float32)
                w_aug[:, :cells] = (programmed.w_planes.transpose(1, 2, 3, 0)
                                    * np.float32(stride))
                w_aug[:, cells] = wc9.transpose(1, 2, 0)
                w_aug[:, cells + 1] = 1.0
                stack["w_aug"] = w_aug.reshape(chunks, cells + 2, n * p)
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

        bits_x = programmed.bits_x
        active_x = self._active_x_bits(programmed, x_codes, active_bits)
        if not active_x.any():
            return result
        band = self.guard_band(programmed, temp_c, f)
        if band is not None:
            # A certified entry decodes ``S11`` for every activation bit,
            # so the active bits' shift-add is the exact product plus the
            # uncertified entries' corrections.  Every term is an integer
            # below ``2**53``: bit-identical to the dense backend.
            bits = np.flatnonzero(active_x)
            mask = int(np.sum(np.left_shift(1, bits)))
            result = ((x_codes & mask).astype(np.float64)
                      @ self._tile_weights(programmed))
            if band.n_uncertified:
                cols, fixes = self.corrections(programmed, band, x_codes,
                                               bits, temp_c=temp_c,
                                               retention=f)
                result[:, cols] += fixes
            result += 0.0   # BLAS may emit -0.0; the dense loop sums +0.0
            return result

        stack = self._weight_stack(programmed)
        if programmed.w_dv is None and "w_aug" in stack:   # multibit
            return self._decode_patterns(programmed, stack, x_codes,
                                         np.flatnonzero(active_x), temp_c, f)

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
            else:
                counts = self._decode_nominal(
                    programmed, stack, x32, n_x1, temp_c, f)
            # counts: (Bx, Mb, P, n) exact integers -> shift-add reduction.
            result[m0:m1] = np.tensordot(scale, counts, axes=([0, 1], [0, 2]))
        return result

    def _tile_weights(self, programmed):
        """The tile's signed weight codes as float64 ``(chunks * cells,
        n)``: its planes shift-added back, cached beside the plane stack
        (replicas share it — only their variation draws differ)."""
        weights = programmed.cache.get("weights")
        if weights is None:
            # Integers times powers of two: exact in any summation order.
            pw = programmed.signs * 2.0 ** programmed.plane_bits
            weights = np.tensordot(pw, programmed.w_planes, axes=(0, 0))
            weights = weights.reshape(programmed.chunks * programmed.cells,
                                      programmed.n)
            programmed.cache["weights"] = weights
        return weights

    def corrections(self, programmed, band, x_codes, bits, *, temp_c,
                    retention=None):
        """What a guard band's uncertified entries add to the exact product.

        ``x_codes`` are the tile's activation codes (its ``k`` columns,
        optionally zero-padded to whole chunks), already validated, and
        ``bits`` the active activation bits (``np.flatnonzero`` of the
        schedule).  Returns ``(cols, fixes)``: the integer corrections
        ``sum sign * 2**shift * 2**bit * (decode - S11)``, float64
        ``(M, cols.size)``, to add at tile columns ``cols`` of
        ``x_codes @ W_tile``.  They come from the band's
        :class:`CorrectionTable` where it has one, else from the explicit
        per-instance decode (:meth:`_decode_uncertified`).  The chip and
        :meth:`matmul` both serve guard bands through this one routine.
        """
        if band.table is not None:
            return band.table.cols, band.table.corrections(x_codes, bits)
        if not (band.n_uncertified and bits.size):
            return band.cols, np.zeros((x_codes.shape[0], band.cols.size))
        k_pad = programmed.chunks * programmed.cells
        if x_codes.shape[1] != k_pad:
            x_codes = np.pad(x_codes, ((0, 0), (0, k_pad - x_codes.shape[1])))
        return band.cols, self._decode_uncertified(
            programmed, band, x_codes, bits, temp_c,
            retention_fraction(retention))

    def _decode_uncertified(self, programmed, band, x_codes, bits, temp_c,
                            f):
        """Explicit decode of a guard band's uncertified entries.

        Gathers each entry's chunk of activation bits (``x_codes`` padded
        to whole chunks) and evaluates the dense backend's float
        expressions on it — the nominal voltage (:meth:`_nominal_vacc`),
        then the variation offset summed over the cells in the dense
        ``einsum``'s order (:func:`_cell_offsets`) — and returns the
        shift-added corrections ``decode - S11`` per column group,
        ``(M, len(band.cols))`` float64.
        """
        cells, chunks = programmed.cells, programmed.chunks
        gain = self.unit.config.sensing.share_gain(cells)
        m, u = x_codes.shape[0], band.n_uncertified
        shifts = bits[:, None, None, None]
        out = np.empty((m, band.cols.size))
        block = max(1, int(self.block_budget_variation
                           // (bits.size * u * cells)))
        for m0 in range(0, m, block):
            m1 = min(m0 + block, m)
            xc = x_codes[m0:m1].reshape(m1 - m0, chunks, cells)[:, band.chunk]
            xb = ((xc[None] >> shifts) & 1).astype(np.float64)
            n11 = np.einsum("bmie,ie->bmi", xb, band.digits)
            n_x1 = xb.sum(axis=3)
            vacc = self._nominal_vacc(n11, band.w_sum, n_x1, temp_c, f)
            vacc = vacc + gain * _cell_offsets(xb, band.dv, programmed.n)
            fixes = self.unit.sensor.decode(vacc) - n11.astype(np.int64)
            shifted = (fixes << bits[:, None, None]).sum(axis=0)
            out[m0:m1] = np.add.reduceat(shifted * band.scale, band.starts,
                                         axis=1)
        return out

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

    def _decode_patterns(self, programmed, stack, x_codes, bits, temp_c,
                         f):
        """Multibit nominal decode, once per distinct chunk input pattern.

        A nominal chunk's decoded count depends only on its ``cells``
        input bits, so the (active bit, row) instances driving one chunk
        share at most ``2**cells`` outcomes.  Per block of chunks this
        (1) reads every instance's pattern id, (2) keeps each distinct
        (chunk, pattern) once, (3) runs the folded-address sgemm
        (``_weight_stack``'s ``w_aug``) and the LUT gather on those
        only, (4) folds the planes with ``sign * 2**shift`` into a
        (pattern, column) table and (5) gathers that table back per
        instance and shift-adds it over bits and chunks.  Every value is
        an integer below ``2**53``, so the sum is bit-identical to the
        dense backend in any order.  A block holds at least one chunk;
        beyond that every intermediate stays within ``block_budget``
        elements.
        """
        lut = self.decode_lut(temp_c, f)
        m, b = x_codes.shape[0], bits.size
        cells, chunks = programmed.cells, programmed.chunks
        p, n = programmed.n_planes, programmed.n
        pw = programmed.signs * 2.0 ** programmed.plane_bits
        cell_bit = np.int64(1) << np.arange(cells)
        # Per chunk: one bit plane, the pattern table, the instances'
        # table rows, and the bits and decodes of at most
        # min(b * m, 2**cells) distinct patterns.
        per_chunk = max(m * cells, 1 << cells, b * m * n,
                        (cells + p * n) * min(b * m, 1 << cells))
        block = max(1, self.block_budget // per_chunk)
        result = np.zeros((m, n))
        for c0 in range(0, chunks, block):
            c1 = min(c0 + block, chunks)
            cb = c1 - c0
            # 1. Pattern id of every (row, chunk, bit): cell e at bit e,
            #    offset by 2**cells per chunk of the block.
            xs = x_codes[:, c0 * cells:c1 * cells].reshape(m, cb, cells)
            keys = np.empty((m, cb, b), np.int64)
            for j, bit in enumerate(bits):
                keys[:, :, j] = ((xs >> bit) & 1) @ cell_bit
            keys += (np.arange(cb, dtype=np.int64) << cells)[:, None]
            # 2. Each distinct (chunk, pattern) once, in key order.
            seen = np.zeros(cb << cells, dtype=bool)
            seen[keys] = True
            uniq = np.flatnonzero(seen)
            inverse = (np.cumsum(seen) - 1)[keys]
            bounds = np.searchsorted(uniq, np.arange(cb + 1) << cells)
            # 3. Their LUT addresses from the folded sgemm, chunk by chunk.
            on = (uniq[:, None] >> np.arange(cells)) & 1
            x_aug = np.empty((uniq.size, cells + 2), np.float32)
            x_aug[:, :cells] = on
            x_aug[:, cells] = 1.0
            x_aug[:, cells + 1] = on.sum(axis=1)
            idx = np.empty((uniq.size, p * n), np.float32)
            for c, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                np.matmul(x_aug[lo:hi], stack["w_aug"][c0 + c],
                          out=idx[lo:hi])
            decoded = np.take(lut, idx.astype(stack["idx_dtype"]))
            # 4. Planes folded into a (pattern, column) table.
            table = (decoded.astype(np.float64).reshape(-1, p) @ pw
                     ).reshape(-1, n)
            # 5. Each instance's table row, shift-added over bits and
            #    chunks.
            result += np.einsum(
                "mkn,k->mn",
                np.take(table, inverse.reshape(m, cb * b), axis=0),
                np.tile(np.ldexp(1.0, bits), cb))
        return result

    def _decode_variation(self, programmed, stack, x32_block, n_x1_block,
                          temp_c, retention=None):
        """Explicit-voltage decode for arrays with programmed-in variation.

        Operation-for-operation the dense backend's expression, evaluated
        over the full plane-pair stack at once.
        """
        gain = self.unit.config.sensing.share_gain(programmed.cells)
        n11 = self._pair_counts(programmed, x32_block,
                                stack["w32"]).astype(np.float64)
        n_w1 = programmed.w_counts[None, None, :, :, :]     # (1,1,P,c,n)
        n_x1 = n_x1_block.astype(np.float64)[:, :, None, :, None]
        vacc = self._nominal_vacc(n11, n_w1, n_x1, temp_c, retention)
        # Variation offsets shrink with the stored level they perturb —
        # same per-element scaling the dense backend applies.
        w_dv = (programmed.w_dv if retention is None
                else retention * programmed.w_dv)
        vacc = vacc + gain * np.einsum(
            "xmce,pcen->xmpcn", x32_block.astype(np.float64), w_dv)
        return self.unit.sensor.decode(vacc).sum(axis=3, dtype=np.int64)


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
