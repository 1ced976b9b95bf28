"""Shared fixtures for the compiler suites.

Circuit calibration is the expensive part of bringing up a chip, so the
suites that compare a fused chip against its dense twin restore one
calibration per design from here instead of calibrating per module.
"""

import pytest

from repro.array import BehavioralMacConfig, BitSerialMacUnit
from repro.cells import FeFET1RCell, TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model

DESIGNS = {"2T-1FeFET": TwoTOneFeFETCell(), "FeFET-1R": FeFET1RCell()}


class FrozenClock:
    """A drift clock stuck at one retention (all a forward pass reads)."""

    def __init__(self, retention):
        self.value = retention

    def retention(self):
        return self.value


@pytest.fixture(scope="session")
def calibrations():
    """One circuit calibration per design; every unit restores it."""
    return {name: BitSerialMacUnit(design).calibration()
            for name, design in DESIGNS.items()}


@pytest.fixture(scope="session")
def twins(calibrations):
    """Factory: ``twins(model, **mapping)`` -> ``(fused, dense)`` chips of
    one program over one restored unit, optionally frozen at
    ``retention``."""

    def build(model, *, design="2T-1FeFET", retention=None, **mapping_kw):
        chips = {}
        for backend in ("fused", "dense"):
            mapping = MappingConfig(backend=backend, **mapping_kw)
            program = compile_model(model, DESIGNS[design], mapping)
            unit = chips["fused"].unit if chips else BitSerialMacUnit(
                DESIGNS[design], BehavioralMacConfig(
                    cells_per_row=mapping.cells_per_row,
                    bits_x=mapping.bits, bits_w=mapping.bits,
                    sigma_vth_fefet=mapping.sigma_vth_fefet,
                    seed=mapping.seed, backend="fused",
                    bits_per_cell=mapping.bits_per_cell),
                calibration=calibrations[design])
            chips[backend] = Chip(program, DESIGNS[design], unit=unit)
            if retention is not None:
                chips[backend].enable_drift(state=FrozenClock(retention))
        return chips["fused"], chips["dense"]

    return build
