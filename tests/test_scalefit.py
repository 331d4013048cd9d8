"""Tests for the logical-error scaling-law fit."""

import math

import numpy as np
import pytest

from qre.scalefit import (
    SCALING_PRESETS,
    FitError,
    ScalingSample,
    fit_scaling_law,
    per_cycle_error,
    read_samples_csv,
)


def synth_samples(kappa, p_thresh, noise_rng=None, sigma=0.0,
                  ps=(1e-3, 2e-3, 5e-3), ds=(3, 5, 7, 9, 11), weight=1.0):
    samples = []
    for p in ps:
        for d in ds:
            p_c = kappa * (p / p_thresh) ** ((d + 1) / 2.0)
            if sigma:
                p_c *= math.exp(noise_rng.normal(0.0, sigma))
            samples.append(ScalingSample(p, d, p_c, weight))
    return samples


class TestPresets:
    def test_table(self):
        assert SCALING_PRESETS == {
            "mwpm-circuit": (0.009, 0.016),
            "mwpm-code-capacity": (0.52, 0.14),
            "astra-gnn": (0.56, 0.17),
        }


class TestNoiselessRecovery:
    @pytest.mark.parametrize("kappa,p_thresh", list(SCALING_PRESETS.values()))
    def test_exact_recovery(self, kappa, p_thresh):
        fit = fit_scaling_law(synth_samples(kappa, p_thresh))
        assert fit.kappa == pytest.approx(kappa, rel=1e-9)
        assert fit.p_thresh == pytest.approx(p_thresh, rel=1e-9)
        assert fit.residual < 1e-9

    def test_two_points_suffice(self):
        fit = fit_scaling_law(synth_samples(0.009, 0.016, ps=(1e-3,),
                                            ds=(3, 9)))
        assert fit.kappa == pytest.approx(0.009, rel=1e-9)
        assert fit.p_thresh == pytest.approx(0.016, rel=1e-9)

    def test_weights_do_not_move_an_exact_fit(self):
        base = fit_scaling_law(synth_samples(0.52, 0.14))
        skewed = [ScalingSample(s.p, s.d, s.p_c_obs, w)
                  for s, w in zip(synth_samples(0.52, 0.14),
                                  (1 + i % 7 for i in range(100)))]
        refit = fit_scaling_law(skewed)
        assert refit.kappa == pytest.approx(base.kappa, rel=1e-9)
        assert refit.p_thresh == pytest.approx(base.p_thresh, rel=1e-9)


class TestNoisyRecovery:
    def test_one_percent_lognormal_noise(self):
        rng = np.random.default_rng(20260814)
        kappas, thresholds = [], []
        for _ in range(100):
            samples = synth_samples(0.009, 0.016, noise_rng=rng, sigma=0.01,
                                    ps=(8e-4, 1e-3, 2e-3, 4e-3),
                                    ds=(3, 5, 7, 9, 11))
            assert len(samples) == 20
            fit = fit_scaling_law(samples * 4)  # 80 observations
            kappas.append(fit.kappa)
            thresholds.append(fit.p_thresh)
        assert abs(np.median(kappas) - 0.009) / 0.009 < 0.02
        assert abs(np.median(thresholds) - 0.016) / 0.016 < 0.02

    def test_residual_reflects_noise_scale(self):
        rng = np.random.default_rng(7)
        fit = fit_scaling_law(synth_samples(0.009, 0.016, noise_rng=rng,
                                            sigma=0.01))
        assert 1e-4 < fit.residual < 0.1


class TestDegenerateInputs:
    def test_single_sample_rejected(self):
        with pytest.raises(FitError):
            fit_scaling_law([ScalingSample(1e-3, 5, 1e-6)])

    def test_single_distance_is_singular(self):
        samples = [ScalingSample(p, 5, 1e-6) for p in (1e-3, 2e-3, 3e-3)]
        with pytest.raises(FitError, match="distinct|singular"):
            fit_scaling_law(samples)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            ScalingSample(0.0, 5, 1e-6)
        with pytest.raises(ValueError):
            ScalingSample(1e-3, 4, 1e-6)  # even distance
        with pytest.raises(ValueError):
            ScalingSample(1e-3, 5, 1.5)
        with pytest.raises(ValueError):
            ScalingSample(1e-3, 5, 1e-6, weight=0.0)


class TestScaleEquivariance:
    def test_scaling_observations_scales_kappa_only(self):
        base = synth_samples(0.009, 0.016)
        scaled = [ScalingSample(s.p, s.d, 3.0 * s.p_c_obs) for s in base]
        fit0 = fit_scaling_law(base)
        fit1 = fit_scaling_law(scaled)
        assert fit1.kappa == pytest.approx(3.0 * fit0.kappa, rel=1e-9)
        assert fit1.p_thresh == pytest.approx(fit0.p_thresh, rel=1e-9)


class TestPerCycleError:
    def test_single_round_identity(self):
        assert per_cycle_error(0.01, 1) == 0.01

    def test_inverts_compounding(self):
        p_cycle = 1e-4
        p_shot = 1.0 - (1.0 - p_cycle) ** 25
        assert per_cycle_error(p_shot, 25) == pytest.approx(p_cycle, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            per_cycle_error(1.0, 5)
        with pytest.raises(ValueError):
            per_cycle_error(0.01, 0)


class TestCsvReader:
    def test_header_and_optional_weight(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "p,d,ler\n"
            "1e-3,3,2e-5\n"
            "2e-3,5,4e-6,2.5\n"
            "\n")
        rows = read_samples_csv(path)
        assert rows == [ScalingSample(1e-3, 3, 2e-5),
                        ScalingSample(2e-3, 5, 4e-6, 2.5)]

    def test_headerless(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("1e-3,3,2e-5\n")
        assert read_samples_csv(path) == [ScalingSample(1e-3, 3, 2e-5)]

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,d,ler\n1e-3,3\n")
        with pytest.raises(FitError, match="row 2"):
            read_samples_csv(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1e-3,four,2e-5\n")
        with pytest.raises(FitError, match="row 1"):
            read_samples_csv(path)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_names_the_row(self, tmp_path, weight):
        """A NaN weight used to fail the fit with "SVD did not converge",
        and an infinite one as a singular fit; both name their row."""
        path = tmp_path / "bad.csv"
        path.write_text(f"p,d,ler,weight\n1e-3,3,2e-5,1\n2e-3,5,4e-6,{weight}\n")
        with pytest.raises(FitError, match=rf"^{path}: row 3: weight must be "
                           rf"finite and positive: {weight}$"):
            read_samples_csv(path)

    def test_roundtrip_through_fit(self, tmp_path):
        path = tmp_path / "samples.csv"
        lines = ["p,d,ler"]
        for s in synth_samples(0.56, 0.17):
            lines.append(f"{s.p!r},{s.d},{s.p_c_obs!r}")
        path.write_text("\n".join(lines) + "\n")
        fit = fit_scaling_law(read_samples_csv(path))
        assert fit.kappa == pytest.approx(0.56, rel=1e-9)
        assert fit.p_thresh == pytest.approx(0.17, rel=1e-9)
