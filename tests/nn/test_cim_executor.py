"""NN inference lowered onto the CiM array: ``compile_model`` + ``Chip``
on the spanning mapping (one unbounded tile per layer)."""

import numpy as np
import pytest

from repro.array import BehavioralMacConfig, BitSerialMacUnit
from repro.cells import TwoTOneFeFETCell
from repro.compiler import Chip, MappingConfig, compile_model
from repro.metrics import classification_accuracy
from repro.nn import Dense, ReLU, Sequential, build_vgg_nano
from repro.nn.layers import Conv2D


@pytest.fixture(scope="module")
def design():
    return TwoTOneFeFETCell()


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(0)
    return Sequential([Dense(6, 8, rng=rng), ReLU(), Dense(8, 3, rng=rng)])


@pytest.fixture(scope="module")
def spanning_chip(design, calibrations):
    """Factory: ``spanning_chip(model, **mapping)`` -> a chip programmed
    with ``model`` on the spanning mapping, over a unit that restores the
    shared circuit calibration."""

    def build(model, **mapping_kw):
        mapping = MappingConfig(tile_rows=None, tile_cols=None,
                                **mapping_kw)
        unit = BitSerialMacUnit(design, BehavioralMacConfig(
            bits_x=mapping.bits, bits_w=mapping.bits,
            sigma_vth_fefet=mapping.sigma_vth_fefet,
            sigma_vth_mosfet=mapping.sigma_vth_mosfet,
            seed=mapping.seed, backend=mapping.backend),
            calibration=calibrations["2T-1FeFET"])
        return Chip(compile_model(model, design, mapping), design,
                    unit=unit)

    return build


class TestLoweringFidelity:
    def test_dense_matches_float_at_reference(self, spanning_chip,
                                              tiny_model):
        """8-bit CiM inference at 27 degC tracks the float forward pass to
        quantization accuracy."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 6))
        float_out = tiny_model.forward(x)
        cim_out = spanning_chip(tiny_model, temp_c=27.0, bits=8).forward(x)
        scale = np.max(np.abs(float_out))
        assert np.max(np.abs(cim_out - float_out)) < 0.08 * scale

    def test_conv_model_runs(self, spanning_chip):
        rng = np.random.default_rng(2)
        model = Sequential([Conv2D(1, 2, rng=rng), ReLU()])
        x = rng.normal(size=(1, 5, 5, 1))
        out = spanning_chip(model, temp_c=27.0, bits=6).forward(x)
        assert out.shape == model.forward(x).shape

    def test_predictions_preserved_at_reference(self, spanning_chip):
        """Argmax predictions survive the lowering on a small test batch."""
        rng = np.random.default_rng(3)
        model = build_vgg_nano(width=4, image_size=8,
                               rng=np.random.default_rng(5))
        x = rng.normal(size=(6, 8, 8, 3))
        float_pred = np.argmax(model.predict(x), axis=1)
        chip = spanning_chip(model, temp_c=27.0, bits=8)
        cim_pred = np.argmax(chip.predict(x), axis=1)
        assert classification_accuracy(cim_pred, float_pred) >= 0.8

    def test_min_macs_threshold_bypasses_array(self, spanning_chip,
                                               tiny_model):
        """Layers below the threshold run in exact float arithmetic."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 6))
        chip = spanning_chip(tiny_model, temp_c=27.0, bits=8,
                             min_macs_for_cim=10**9)
        assert np.allclose(chip.forward(x), tiny_model.forward(x))


class TestBackends:
    def test_temp_override_reuses_programmed_weights(self, spanning_chip,
                                                     tiny_model):
        """One chip sweeps temperatures on its programmed arrays."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 6))
        chip = spanning_chip(tiny_model, temp_c=27.0, bits=8)
        hot = spanning_chip(tiny_model, temp_c=85.0, bits=8)
        assert np.array_equal(chip.forward(x, temp_c=85.0), hot.forward(x))
        assert np.array_equal(chip.predict(x, temp_c=85.0), hot.predict(x))

    def test_redraw_variation_changes_outputs(self, spanning_chip,
                                              tiny_model):
        """MC-shard primitive: same weights, fresh die, new error pattern."""
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 6))
        chip = spanning_chip(tiny_model, temp_c=27.0, bits=8,
                             sigma_vth_fefet=54e-3, sigma_vth_mosfet=15e-3,
                             seed=13)
        first = chip.forward(x)
        chip.redraw_variation(seed=99)
        assert not np.allclose(first, chip.forward(x))

    def test_reprogram_tracks_weight_updates(self, spanning_chip,
                                             tiny_model):
        """The array is nonvolatile: a weight edit reaches the array only
        through a recompile and a freshly programmed chip."""
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 6))
        chip = spanning_chip(tiny_model, temp_c=27.0, bits=8)
        before = chip.forward(x)
        layer = tiny_model.layers[0]
        original = layer.params["w"].copy()
        try:
            layer.params["w"] = original * 0.5
            assert np.array_equal(chip.forward(x), before)   # stale
            rewritten = spanning_chip(tiny_model, temp_c=27.0, bits=8)
            assert not np.array_equal(rewritten.forward(x), before)
        finally:
            layer.params["w"] = original


class TestNoiseInjection:
    def test_variation_changes_outputs(self, spanning_chip, tiny_model):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        clean = spanning_chip(tiny_model, temp_c=27.0, bits=8).forward(x)
        noisy = spanning_chip(tiny_model, temp_c=27.0, bits=8,
                              sigma_vth_fefet=54e-3, sigma_vth_mosfet=15e-3,
                              seed=7).forward(x)
        assert not np.allclose(clean, noisy)

    def test_seeded_noise_reproducible(self, spanning_chip, tiny_model):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 6))
        kwargs = dict(temp_c=27.0, bits=8, sigma_vth_fefet=54e-3, seed=9)
        a = spanning_chip(tiny_model, **kwargs).forward(x)
        b = spanning_chip(tiny_model, **kwargs).forward(x)
        assert np.allclose(a, b)

    def test_temperature_resilience_of_proposed(self, spanning_chip,
                                                tiny_model):
        """Outputs at 85 degC match 27 degC for the proposed cell."""
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 6))
        cold = spanning_chip(tiny_model, temp_c=27.0, bits=8).forward(x)
        hot = spanning_chip(tiny_model, temp_c=85.0, bits=8).forward(x)
        scale = np.max(np.abs(cold))
        assert np.max(np.abs(hot - cold)) < 0.05 * scale
