"""Link budget: log-distance path loss, thermal noise, SINR, Shannon rate."""

import math
from dataclasses import dataclass, fields

SPEED_OF_LIGHT = 2.998e8  # m/s
BOLTZMANN = 1.38e-23  # J/K
REFERENCE_DISTANCE_M = 1.0  # d_ref of the log-distance model


@dataclass(frozen=True)
class RadioConfig:
    """Transmitter, channel and receiver parameters shared by every link."""

    tx_power_w: float = 0.1
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    frequency_hz: float = 2e9
    path_loss_exponent: float = 4.0
    noise_figure_db: float = 4.0
    temperature_k: float = 300.0
    bandwidth_hz: float = 1e6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (f.name, value))
        if self.tx_power_w <= 0:
            raise ValueError("tx_power_w must be positive")
        if self.tx_gain <= 0 or self.rx_gain <= 0:
            raise ValueError("antenna gains must be positive")
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if not (2.0 <= self.path_loss_exponent <= 6.0):
            raise ValueError("path_loss_exponent must lie in [2, 6], got %r" % (self.path_loss_exponent,))
        if self.temperature_k <= 0:
            raise ValueError("temperature_k must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT / self.frequency_hz


def path_constant(config):
    """Reference-distance gain K = Gt * Gr * (lambda / (4 pi d_ref))^2."""
    lam = config.wavelength_m
    return config.tx_gain * config.rx_gain * (lam / (4.0 * math.pi * REFERENCE_DISTANCE_M)) ** 2


def received_power(config, distance_m):
    """Power in watts after log-distance path loss over distance_m metres.

    Valid from the 1 m reference outward; closer distances are outside the
    far-field model and rejected.
    """
    if distance_m < REFERENCE_DISTANCE_M:
        raise ValueError("distance %.3f m below the %.1f m reference" % (distance_m, REFERENCE_DISTANCE_M))
    ratio = REFERENCE_DISTANCE_M / distance_m
    return config.tx_power_w * path_constant(config) * ratio ** config.path_loss_exponent


def noise_power(config):
    """Receiver noise floor F * k * T * B in watts, F the linear noise factor."""
    return 10.0 ** (config.noise_figure_db / 10.0) * BOLTZMANN * config.temperature_k * config.bandwidth_hz


def sinr(signal_w, interference_w, noise_w):
    """Signal over interference plus noise; all inputs in watts."""
    if signal_w < 0 or interference_w < 0:
        raise ValueError("powers must be non-negative")
    if noise_w <= 0:
        raise ValueError("noise power must be positive")
    return signal_w / (interference_w + noise_w)


def shannon_rate(config, sinr_value):
    """Achievable rate B * log2(1 + SINR) in bits per second."""
    if sinr_value < 0:
        raise ValueError("SINR must be non-negative")
    return config.bandwidth_hz * math.log2(1.0 + sinr_value)
