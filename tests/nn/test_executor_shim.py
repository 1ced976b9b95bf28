"""Equivalence: the compiled stack is bit-identical to the pre-redesign
executor on the VGG-shaped workload.

This is the redesign's acceptance gate: ``compile()`` + ``Chip`` with a
spanning (single-tile-per-layer) mapping replaces the monolithic
executor, and nothing about its numerics may drift from the frozen
legacy implementation in ``tests/nn/_legacy_executor.py`` — nominal and
with the paper's process variation, across temperature overrides,
batched prediction, and Monte-Carlo redraws.  Finite tiles and the
serving session must reproduce it too.
"""

import numpy as np
import pytest

from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.nn import build_vgg_nano
from repro.serve import InferenceSession


@pytest.fixture(scope="module")
def design():
    return TwoTOneFeFETCell()


@pytest.fixture(scope="module")
def vgg():
    return build_vgg_nano(width=4, image_size=8,
                          rng=np.random.default_rng(5))


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(3).normal(size=(6, 8, 8, 3))


@pytest.fixture(scope="module")
def legacy_nominal(legacy_cim, vgg, design):
    return legacy_cim.CimExecutor(
        vgg, design, legacy_cim.CimExecutionConfig(temp_c=27.0, bits=8))


def spanning_chip(model, design, **mapping_kw):
    """A chip on the pre-redesign executor's mapping: one unbounded tile
    per layer, so its seeded variation draws land in the same order.  It
    calibrates its own unit, so the mapping -> unit translation is under
    test too."""
    program = compile_model(model, design, MappingConfig(
        tile_rows=None, tile_cols=None, **mapping_kw))
    return Chip(program, design)


class TestShimEquivalence:
    def test_vgg_forward_and_predict_nominal(self, vgg, design, images,
                                             legacy_nominal):
        chip = spanning_chip(vgg, design, temp_c=27.0, bits=8)
        for temp in (None, 0.0, 85.0):
            assert np.array_equal(chip.forward(images, temp_c=temp),
                                  legacy_nominal.forward(images,
                                                         temp_c=temp))
        assert np.array_equal(chip.predict(images, batch_size=4),
                              legacy_nominal.predict(images, batch_size=4))

    def test_vgg_with_process_variation_and_redraw(self, legacy_cim, vgg,
                                                   design, images):
        kwargs = dict(temp_c=27.0, bits=8, sigma_vth_fefet=54e-3,
                      sigma_vth_mosfet=15e-3, seed=11)
        legacy = legacy_cim.CimExecutor(
            vgg, design, legacy_cim.CimExecutionConfig(**kwargs))
        chip = spanning_chip(vgg, design, **kwargs)
        assert np.array_equal(chip.forward(images), legacy.forward(images))
        chip.redraw_variation(99)
        legacy.redraw_variation(99)
        assert np.array_equal(chip.forward(images), legacy.forward(images))

    def test_tiled_program_matches_legacy_on_vgg(self, vgg, design, images,
                                                 legacy_nominal):
        """Finite paper-scale tiles (ragged against the VGG's K/N dims)
        still reproduce the legacy single-array outputs bit-for-bit."""
        program = compile_model(vgg, design, MappingConfig(tile_rows=32,
                                                           tile_cols=16))
        chip = Chip(program, design, unit=legacy_nominal.mac_unit)
        assert any(plan.grid != (1, 1) for plan in program.layers)
        for temp in (None, 85.0):
            assert np.array_equal(chip.forward(images, temp_c=temp),
                                  legacy_nominal.forward(images,
                                                         temp_c=temp))

    def test_session_serves_legacy_bit_identical(self, vgg, design, images,
                                                 legacy_nominal):
        """End to end: a micro-batched session over the compiled VGG
        returns exactly what the pre-redesign executor computed."""
        program = compile_model(vgg, design, MappingConfig(tile_rows=32,
                                                           tile_cols=16))
        chip = Chip(program, design, unit=legacy_nominal.mac_unit)
        with InferenceSession(chip, max_batch_size=4,
                              autostart=False) as session:
            tickets = [session.submit(images[i:i + 1], temp_c=85.0)
                       for i in range(images.shape[0])]
            while session.step():
                pass
            served = np.concatenate(
                [t.result(timeout=30.0).logits for t in tickets])
        reference = np.concatenate(
            [legacy_nominal.forward(images[i:i + 1], temp_c=85.0)
             for i in range(images.shape[0])])
        assert np.array_equal(served, reference)
