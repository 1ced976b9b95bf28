"""CiM array: MAC rows, charge-sharing sensing, bit-serial multi-bit MACs.

The paper's array (Fig. 6) places 8 cells on a row; during the read window
each cell charges its own capacitor C_o, then an EN switch dumps all C_o
charge onto the accumulation capacitor C_acc, realizing eq. (1):

    V_acc = C_o / (n C_o + C_acc) * sum_i V_Oi

* :mod:`repro.array.row` — circuit-level MAC row (any cell design).
* :mod:`repro.array.sensing` — eq. (1) analytics + ADC threshold calibration.
* :mod:`repro.array.mac_unit` — behavioral bit-serial 8-bit MAC unit behind
  every compiled :class:`~repro.compiler.chip.Chip`.
* :mod:`repro.array.backend` — pluggable array backends splitting the MAC
  into weight-stationary programming and per-batch compute (reference
  ``dense`` kernel + batched ``fused`` bit-plane kernel).
* :mod:`repro.array.energy` / :mod:`repro.array.timing` — energy and latency
  accounting behind Fig. 8(b) and Table II.
"""

from repro.array.row import MacRow, RowEnsemble, RowReadResult
from repro.array.sensing import ChargeSharingSensor, SensingSpec, ideal_vacc
from repro.array.mac_unit import BehavioralMacConfig, BitSerialMacUnit
from repro.array.backend import (
    BACKENDS,
    ArrayBackend,
    DenseNumpyBackend,
    FusedBitPlaneBackend,
    GuardBand,
    ProgrammedArray,
    backend_names,
    engine_names,
    make_backend,
    plane_schedule,
    validate_backend_name,
)
from repro.array.energy import EnergyReport, OperationEnergy
from repro.array.timing import LatencySpec

__all__ = [
    "MacRow",
    "RowEnsemble",
    "RowReadResult",
    "ChargeSharingSensor",
    "SensingSpec",
    "ideal_vacc",
    "BitSerialMacUnit",
    "BehavioralMacConfig",
    "ArrayBackend",
    "BACKENDS",
    "DenseNumpyBackend",
    "FusedBitPlaneBackend",
    "GuardBand",
    "ProgrammedArray",
    "backend_names",
    "engine_names",
    "make_backend",
    "plane_schedule",
    "validate_backend_name",
    "EnergyReport",
    "OperationEnergy",
    "LatencySpec",
]
