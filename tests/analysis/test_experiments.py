"""Integration tests for the experiment registry (fast configurations).

The full-size experiments run in the benchmark suite; here every registry
entry is exercised at reduced size so regressions in the experiment plumbing
surface quickly.
"""

import numpy as np
import pytest

from repro.analysis import experiments as E
from repro.analysis.montecarlo import MonteCarloResult, run_process_variation_mc
from repro.cells import TwoTOneFeFETCell
from repro.devices.variation import VariationSpec


class TestFig1:
    def test_structure_and_claims(self):
        result = E.fig1_fefet_characteristics(temps_c=(0.0, 27.0, 85.0),
                                              points=12)
        assert set(result["curves"]) == {
            (s, t) for s in ("low-vth", "high-vth") for t in (0.0, 27.0, 85.0)
        }
        assert result["ion_ioff_at_read"] > 1e4
        assert "V_G" in result["report"]


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return E.fig3_cell_fluctuation(num_temps=5)

    def test_ordering(self, result):
        assert (result["subthreshold"]["max_fluctuation"]
                > result["saturation"]["max_fluctuation"])

    def test_profiles_zero_at_reference(self, result):
        for label in ("saturation", "subthreshold"):
            profile = result[label]["profile"]
            assert np.min(np.abs(profile)) == pytest.approx(0.0, abs=1e-9)


class TestFig4AndFig8:
    def test_fig4_baseline_overlaps(self):
        result = E.fig4_baseline_overlap(temps_c=(0.0, 27.0, 85.0))
        assert result["overlap"] is True
        assert result["nmr_min"] < 0

    def test_fig8_proposed_separated(self):
        result = E.fig8_proposed_array(temps_c=(0.0, 27.0, 85.0))
        assert result["overlap"] is False
        assert result["nmr_min"] > 0
        assert result["avg_energy_fj"] > 0
        assert result["tops_per_watt"] > 500
        assert len(result["nmr"]) == 8


class TestFig7:
    def test_within_paper_band(self):
        result = E.fig7_proposed_cell(num_temps=5)
        assert result["max_fluctuation"] < 0.266
        assert result["max_fluctuation_above_20c"] <= result["max_fluctuation"] + 1e-9


class TestFig9:
    def test_small_mc(self):
        result = E.fig9_process_variation(n_samples=8, seed=1)
        assert result["mc8"].errors.shape == (8,)
        assert 0.0 < result["max_error_8"] < 0.5
        assert result["max_error_lsb_8"] > 0

    def test_mc_seed_reproducible(self):
        a = run_process_variation_mc(TwoTOneFeFETCell(), n_samples=4,
                                     n_cells=4, seed=3)
        b = run_process_variation_mc(TwoTOneFeFETCell(), n_samples=4,
                                     n_cells=4, seed=3)
        assert np.array_equal(a.errors, b.errors)

    def test_mc_validates_mac_value(self):
        with pytest.raises(ValueError):
            run_process_variation_mc(TwoTOneFeFETCell(), n_samples=2,
                                     n_cells=4, mac_value=9)

    def test_zero_variation_zero_error(self):
        mc = run_process_variation_mc(
            TwoTOneFeFETCell(), n_samples=3, n_cells=4,
            spec=VariationSpec(sigma_vth_fefet=0.0, sigma_vth_mosfet=0.0))
        assert np.allclose(mc.errors, 0.0, atol=1e-9)


class TestEngines:
    """Batched vs scalar circuit engine on the hot consumers."""

    def test_mc_engines_agree_within_tolerance(self):
        kwargs = dict(n_samples=3, n_cells=2, seed=5, dt=0.2e-9)
        batched = run_process_variation_mc(TwoTOneFeFETCell(),
                                           engine="batched", **kwargs)
        scalar = run_process_variation_mc(TwoTOneFeFETCell(),
                                          engine="scalar", **kwargs)
        np.testing.assert_allclose(batched.errors, scalar.errors,
                                   rtol=1e-6, atol=1e-9)
        assert batched.nominal_vacc == pytest.approx(scalar.nominal_vacc,
                                                     rel=1e-7)
        assert batched.lsb_v == pytest.approx(scalar.lsb_v, rel=1e-6)
        assert batched.engine == "batched"
        assert scalar.engine == "scalar"

    def test_mc_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            run_process_variation_mc(TwoTOneFeFETCell(), n_samples=1,
                                     n_cells=2, engine="spice")

    def test_array_bands_engines_agree(self):
        design = TwoTOneFeFETCell()
        sweeps_b, ranges_b, energy_b, sing_b = E._array_bands(
            design, (27.0,), n_cells=2, engine="batched")
        sweeps_s, ranges_s, energy_s, sing_s = E._array_bands(
            design, (27.0,), n_cells=2, engine="scalar")
        np.testing.assert_allclose(sweeps_b[27.0], sweeps_s[27.0],
                                   rtol=1e-7, atol=1e-9)
        assert energy_b[27.0].average_energy_fj == pytest.approx(
            energy_s[27.0].average_energy_fj, rel=1e-6)
        assert sing_b == sing_s == 0

    def test_fig9_reports_engine_diagnostics(self):
        result = E.fig9_process_variation(n_samples=2, seed=2)
        assert result["engine"] == "batched"
        assert result["diagnostics"]["engine"] == "batched"
        assert result["diagnostics"]["singular_solves"] == 0


class TestMonteCarloMerge:
    def _mc(self, **overrides):
        base = dict(errors=np.array([0.01]), errors_lsb=np.array([0.08]),
                    nominal_vacc=0.1, lsb_v=0.0125, mac_value=2, n_cells=2,
                    temp_c=27.0, engine="scalar", singular_solves=0)
        base.update(overrides)
        return MonteCarloResult(**base)

    def test_merges_engine_variants_with_float_tolerance(self):
        a = self._mc(engine="scalar")
        # A batched shard agrees to solver precision, not bitwise.
        b = self._mc(engine="batched",
                     nominal_vacc=0.1 * (1 + 1e-9), lsb_v=0.0125 * (1 - 1e-9),
                     singular_solves=1)
        merged = MonteCarloResult.merge([a, b])
        assert merged.errors.shape == (2,)
        assert merged.engine == "mixed"
        assert merged.singular_solves == 1

    def test_same_engine_is_preserved(self):
        merged = MonteCarloResult.merge([self._mc(), self._mc()])
        assert merged.engine == "scalar"

    def test_genuinely_different_configs_refused(self):
        with pytest.raises(ValueError):
            MonteCarloResult.merge([self._mc(),
                                    self._mc(nominal_vacc=0.2)])
        with pytest.raises(ValueError):
            MonteCarloResult.merge([self._mc(), self._mc(n_cells=4)])
        with pytest.raises(ValueError):
            MonteCarloResult.merge([])


class TestTable1:
    def test_table1(self):
        result = E.table1_vgg()
        assert result["output_shape"] == (1, 10)
        assert 2e8 < result["macs_per_inference"] < 4e8


class TestDecodeErrors:
    def test_proposed_clean_baseline_dirty(self):
        result = E.mac_decode_errors(temps_c=(0.0, 27.0, 85.0), n_vectors=16)
        proposed = result["error_rates"]["2T-1FeFET"]
        baseline = result["error_rates"]["1FeFET-1R sub"]
        assert proposed[27.0] == 0.0
        assert proposed[85.0] == 0.0
        assert baseline[85.0] > proposed[85.0]

    def test_temperatures_past_the_default_grid(self):
        """Requested temperatures join the units' calibration grid, so
        100 degC reads simulated levels instead of raising."""
        result = E.mac_decode_errors(temps_c=(0.0, 27.0, 100.0),
                                     n_vectors=16)
        assert result["error_rates"]["2T-1FeFET"][100.0] == 0.0
        assert result["error_rates"]["1FeFET-1R sub"][100.0] > 0.5
        mlc = E.mlc_temperature(bits_per_cell=(2,), temps_c=(27.0, 100.0),
                                n_vectors=4)
        assert mlc["results"][2]["exact_decode"][27.0] == 1.0
