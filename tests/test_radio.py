"""Link-budget unit tests against frozen numeric oracles."""

import math

import pytest

from multihop.radio import (
    BOLTZMANN,
    RadioConfig,
    noise_power,
    path_constant,
    received_power,
    shannon_rate,
    sinr,
)

# frozen values, computed once from the closed forms at the default parameters
K_DEFAULT = 1.4229300060344792e-04
P_RX_100M = 1.4229300060344793e-13
NOISE_W = 1.0399209826449661e-14
SINR_CLEAN = 13.683058903334718
RATE_CLEAN = 3876080.649237119
SINR_ONE_INTERFERER = 7.375551932377162


def close(a, b, rel=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


class TestPathConstant:
    def test_default_value(self):
        assert close(path_constant(RadioConfig()), K_DEFAULT)

    def test_scales_with_gains(self):
        base = path_constant(RadioConfig())
        doubled = path_constant(RadioConfig(tx_gain=2.0, rx_gain=3.0))
        assert close(doubled, 6.0 * base)

    def test_quadratic_in_wavelength(self):
        half_wavelength = path_constant(RadioConfig(frequency_hz=4e9))
        assert close(half_wavelength, path_constant(RadioConfig()) / 4.0)


class TestReceivedPower:
    def test_hundred_metres_at_default_exponent(self):
        assert close(received_power(RadioConfig(), 100.0), P_RX_100M)

    def test_reference_distance_gives_full_constant(self):
        cfg = RadioConfig()
        assert close(received_power(cfg, 1.0), cfg.tx_power_w * path_constant(cfg))

    @pytest.mark.parametrize("distance", [1.0, 2.0, 10.0, 100.0, 123.456, 1000.0])
    def test_matches_friis_at_exponent_two(self, distance):
        cfg = RadioConfig(path_loss_exponent=2.0)
        lam = cfg.wavelength_m
        friis = (
            cfg.tx_power_w
            * cfg.tx_gain
            * cfg.rx_gain
            * (lam / (4.0 * math.pi * distance)) ** 2
        )
        assert close(received_power(cfg, distance), friis)

    def test_decreases_with_distance(self):
        cfg = RadioConfig()
        distances = [1.0, 5.0, 50.0, 100.0, 300.0, 1000.0]
        powers = [received_power(cfg, d) for d in distances]
        assert powers == sorted(powers, reverse=True)

    def test_higher_exponent_attenuates_more(self):
        gentle = received_power(RadioConfig(path_loss_exponent=2.0), 50.0)
        harsh = received_power(RadioConfig(path_loss_exponent=4.0), 50.0)
        assert harsh < gentle

    def test_rejects_distance_inside_reference(self):
        with pytest.raises(ValueError):
            received_power(RadioConfig(), 0.5)


class TestNoisePower:
    def test_default_value(self):
        assert close(noise_power(RadioConfig()), NOISE_W)

    def test_formula(self):
        cfg = RadioConfig()
        expected = 10.0 ** 0.4 * BOLTZMANN * 300.0 * 1e6
        assert close(noise_power(cfg), expected)


class TestSinr:
    def test_clean_link_at_one_hop(self):
        cfg = RadioConfig()
        value = sinr(received_power(cfg, 100.0), 0.0, noise_power(cfg))
        assert close(value, SINR_CLEAN)

    def test_single_interferer_two_hops_out(self):
        cfg = RadioConfig()
        value = sinr(
            received_power(cfg, 100.0),
            received_power(cfg, 200.0),
            noise_power(cfg),
        )
        assert close(value, SINR_ONE_INTERFERER)

    def test_interference_lowers_sinr(self):
        cfg = RadioConfig()
        s = received_power(cfg, 100.0)
        n = noise_power(cfg)
        assert sinr(s, received_power(cfg, 500.0), n) < sinr(s, 0.0, n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sinr(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sinr(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            sinr(1.0, 0.0, 0.0)


class TestShannonRate:
    def test_clean_link_rate(self):
        cfg = RadioConfig()
        assert close(shannon_rate(cfg, SINR_CLEAN), RATE_CLEAN)

    def test_zero_sinr_means_zero_rate(self):
        assert shannon_rate(RadioConfig(), 0.0) == 0.0

    def test_monotone_in_sinr(self):
        cfg = RadioConfig()
        rates = [shannon_rate(cfg, s) for s in (0.0, 0.5, 1.0, 5.0, 20.0)]
        assert rates == sorted(rates)

    def test_proportional_to_bandwidth(self):
        narrow = shannon_rate(RadioConfig(), 3.0)
        wide = shannon_rate(RadioConfig(bandwidth_hz=2e6), 3.0)
        assert close(wide, 2.0 * narrow)


class TestValidation:
    @pytest.mark.parametrize("eta", [1.9, 6.1, 0.0, -4.0])
    def test_path_loss_exponent_range(self, eta):
        with pytest.raises(ValueError):
            RadioConfig(path_loss_exponent=eta)

    def test_exponent_bounds_are_inclusive(self):
        RadioConfig(path_loss_exponent=2.0)
        RadioConfig(path_loss_exponent=6.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tx_power_w": 0.0},
            {"tx_gain": 0.0},
            {"rx_gain": -1.0},
            {"frequency_hz": 0.0},
            {"temperature_k": 0.0},
            {"bandwidth_hz": 0.0},
        ],
    )
    def test_positive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RadioConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "tx_power_w",
            "tx_gain",
            "rx_gain",
            "frequency_hz",
            "path_loss_exponent",
            "noise_figure_db",
            "temperature_k",
            "bandwidth_hz",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            RadioConfig(**{field: value})

    def test_db_noise_figure_may_be_negative(self):
        RadioConfig(noise_figure_db=-1.0)
