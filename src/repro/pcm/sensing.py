"""Sense-amplifier models: R-metric (current) and M-metric (voltage) readout.

Reading a 2-bit MLC cell compares its metric against the three read
references in two rounds (first ``Ref2``, then ``Ref1`` or ``Ref3``); the
net effect is quantization of ``log10(metric)`` against the threshold
ladder, which is what :func:`sense_levels` implements (vectorized).

The two concrete amplifiers differ only in which :class:`MetricParams` they
quantize with and in their latency/energy bookkeeping; the hybrid sense
amplifier of paper Fig. 8 is modeled as owning one of each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .params import DEFAULT_ENERGY, EnergyParams, M_METRIC, MetricParams, R_METRIC

__all__ = [
    "sense_levels",
    "SenseAmplifier",
    "RSenseAmplifier",
    "MSenseAmplifier",
    "HybridSenseAmplifier",
]


def sense_levels(
    params: MetricParams, log10_values: Union[float, np.ndarray]
) -> np.ndarray:
    """Quantize ``log10(metric)`` values to levels using the read references.

    Args:
        params: Metric whose threshold ladder to use.
        log10_values: Observed ``log10`` metric value(s).

    Returns:
        Integer level array (0..3), same shape as the input.
    """
    values = np.asarray(log10_values, dtype=np.float64)
    thresholds = np.asarray(params.thresholds, dtype=np.float64)
    return np.digitize(values, thresholds).astype(np.int64)


@dataclass
class SenseAmplifier:
    """Base sense amplifier: quantizes values and accounts latency/energy.

    Attributes:
        params: The metric this amplifier senses.
        energy: Energy model used for per-read accounting.
        reads: Number of line reads serviced.
        cells_sensed: Total cells sensed across all reads.
    """

    params: MetricParams
    energy: EnergyParams = field(default_factory=lambda: DEFAULT_ENERGY)
    reads: int = 0
    cells_sensed: int = 0

    @property
    def latency_ns(self) -> float:
        """Line-read latency of this amplifier."""
        return self.params.read_latency_ns

    def sense(self, log10_values: np.ndarray) -> np.ndarray:
        """Sense a line of cells; returns the quantized levels."""
        values = np.asarray(log10_values, dtype=np.float64)
        self.reads += 1
        self.cells_sensed += int(values.size)
        return sense_levels(self.params, values)

    def sense_batch(self, log10_values: np.ndarray) -> np.ndarray:
        """Sense a ``(lines, cells)`` batch in one quantization pass.

        Accounting matches ``lines`` sequential :meth:`sense` calls; one
        call amortizes the numpy dispatch overhead across a whole read
        window.
        """
        values = np.asarray(log10_values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("sense_batch expects a (lines, cells) array")
        self.reads += values.shape[0]
        self.cells_sensed += int(values.size)
        return sense_levels(self.params, values)

    def read_energy_pj(self, data_bits: int) -> float:
        """Dynamic energy of one line read of ``data_bits`` bits."""
        return self.energy.read_energy_pj(self.params.name, data_bits)


class RSenseAmplifier(SenseAmplifier):
    """Current-mode sensing: fast (150 ns) but fully exposed to drift."""

    def __init__(self, energy: EnergyParams = DEFAULT_ENERGY,
                 params: MetricParams = R_METRIC) -> None:
        super().__init__(params=params, energy=energy)


class MSenseAmplifier(SenseAmplifier):
    """Voltage-mode sensing: slow (450 ns) but ~7x more drift-tolerant."""

    def __init__(self, energy: EnergyParams = DEFAULT_ENERGY,
                 params: MetricParams = M_METRIC) -> None:
        super().__init__(params=params, energy=energy)


@dataclass
class HybridSenseAmplifier:
    """The ReadDuo hybrid sense amplifier (paper Fig. 8).

    Owns one current-mode and one voltage-mode amplifier sharing peripheral
    circuits. An R-M-read uses both in sequence, so its latency is the sum
    and its energy is the sum of both sensing passes.
    """

    r_amp: RSenseAmplifier = field(default_factory=RSenseAmplifier)
    m_amp: MSenseAmplifier = field(default_factory=MSenseAmplifier)

    @property
    def rm_latency_ns(self) -> float:
        """Latency of R-sensing that fails and falls back to M-sensing."""
        return self.r_amp.latency_ns + self.m_amp.latency_ns

    def sense_r(self, log10_r_values: np.ndarray) -> np.ndarray:
        """R-metric pass over a line's R values."""
        return self.r_amp.sense(log10_r_values)

    def sense_m(self, log10_m_values: np.ndarray) -> np.ndarray:
        """M-metric pass over a line's M values."""
        return self.m_amp.sense(log10_m_values)

    def rm_read_energy_pj(self, data_bits: int) -> float:
        """Energy of a combined R-then-M read."""
        return self.r_amp.read_energy_pj(data_bits) + self.m_amp.read_energy_pj(
            data_bits
        )
