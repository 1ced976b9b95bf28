"""Shared test fixtures.

The result cache defaults to a per-user directory; tests must never read
or pollute it, so every test gets a private cache via ``REPRO_CACHE_DIR``.

``legacy_cim`` loads the frozen pre-redesign ``CimExecutor`` copy kept in
``tests/nn/_legacy_executor.py`` — the reference semantics the
compile-and-serve equivalence suites compare against.

``calibrations`` holds one circuit calibration per cell design, so the
suites skip a batched circuit transient per unit: a unit that restores
one computes exactly what the calibrated unit computes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.setenv("REPRO_ARTIFACT_DIR",
                       str(tmp_path / "repro-artifacts"))


@pytest.fixture(scope="session")
def legacy_cim():
    """The frozen pre-redesign executor module (reference semantics)."""
    path = Path(__file__).parent / "nn" / "_legacy_executor.py"
    spec = importlib.util.spec_from_file_location("legacy_cim_reference",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules, so the
    # module must be registered before execution.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def calibrations():
    """One circuit calibration per design; every unit restores it."""
    from repro.array import BitSerialMacUnit
    from repro.cells import FeFET1RCell, TwoTOneFeFETCell

    designs = {"2T-1FeFET": TwoTOneFeFETCell(), "FeFET-1R": FeFET1RCell()}
    return {name: BitSerialMacUnit(design).calibration()
            for name, design in designs.items()}
