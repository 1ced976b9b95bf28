"""Property test: every decode path of the fused chip matches the dense
oracle bit for bit.

Hypothesis draws the model shape, cells per row, a possibly ragged
tiling, bits per cell, temperature, retention and variation sigma, which
between them reach every fused path — the exact GEMM, the nominal LUT
decode, the multibit pattern decode, the certified guard band and the
explicit variation decode — and compares the fused chip's logits and
metering with its dense twin's.  Explicit examples serve the
benchmark's chips, the reduced VGG on 32x16 tiles: at 2 bits per cell,
16 copies of one image off the exact gate, so nearly every
pattern-decode instance repeats; at sigma = 54 mV, 16 distinct images at
27 and 85 degC, which run every layer as one GEMM plus the guard bands'
per-pattern correction tables.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential
from repro.serve import build_serving_workload

PATH_COUNTERS = ("exact_layer_matmuls", "analog_layer_matmuls",
                 "certified_layer_matmuls", "explicit_row_ops")


@st.composite
def scenarios(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    c_in = draw(st.integers(1, 3))
    hidden = draw(st.integers(1, 6))
    outputs = draw(st.integers(1, 6))
    if draw(st.booleans()):
        layers = [Conv2D(c_in, hidden, kernel=3, rng=rng), ReLU(),
                  Flatten(), Dense(16 * hidden, outputs, rng=rng)]
        shape = (4, 4, c_in)
    else:
        k = draw(st.integers(1, 40))
        layers = [Dense(k, hidden, rng=rng), ReLU(),
                  Dense(hidden, outputs, rng=rng)]
        shape = (k,)
    cells = draw(st.sampled_from([4, 8, 16]))
    mapping = dict(
        cells_per_row=cells,
        tile_rows=draw(st.none() | st.integers(1, 3).map(cells.__mul__)),
        tile_cols=draw(st.sampled_from([None, 1, 2, 3, 5])),
        bits_per_cell=draw(st.sampled_from([1, 2, 3])),
        sigma_vth_fefet=draw(st.sampled_from([0.0, 15e-3, 54e-3, 100e-3])
                             | st.floats(0.0, 0.12)),
        seed=draw(st.integers(0, 2 ** 16)))
    temp = draw(st.sampled_from([0.0, 27.0, 55.0, 85.0])
                | st.floats(0.0, 85.0))
    retention = draw(st.none() | st.sampled_from([0.99, 0.8])
                     | st.floats(0.5, 1.0))
    x = rng.normal(size=(draw(st.integers(1, 3)), *shape))
    return Sequential(layers), mapping, temp, retention, x


def benchmark_chip(temp, retention):
    model, _ = build_serving_workload(0, width=4, image_size=8, seed=0)
    x = np.repeat(np.random.default_rng(1).normal(size=(1, 8, 8, 3)), 16,
                  axis=0)
    mapping = dict(tile_rows=32, tile_cols=16, bits_per_cell=2)
    return model, mapping, temp, retention, x


def variation_chip(temp):
    model, _ = build_serving_workload(0, width=4, image_size=8, seed=0)
    x = np.random.default_rng(2).normal(size=(16, 8, 8, 3))
    mapping = dict(tile_rows=32, tile_cols=16, sigma_vth_fefet=54e-3)
    return model, mapping, temp, None, x


@given(scenario=scenarios())
@example(scenario=benchmark_chip(27.0, 0.65))
@example(scenario=benchmark_chip(85.0, None))
@example(scenario=variation_chip(27.0))
@example(scenario=variation_chip(85.0))
@settings(max_examples=30, deadline=None)
def test_fused_chip_matches_dense_oracle(twins, scenario):
    model, mapping, temp, retention, x = scenario
    fused, dense = twins(model, retention=retention, **mapping)
    assert np.array_equal(fused.forward(x, temp_c=temp),
                          dense.forward(x, temp_c=temp))
    got, want = fused.meter.snapshot(), dense.meter.snapshot()
    for key in PATH_COUNTERS:
        got.pop(key), want.pop(key)
    assert got == want
