"""Complex Morlet wavelet bank and time-frequency power maps.

The bank covers 1-40 Hz in 1 Hz steps with the cycle count growing linearly
from 0.1 at the lowest frequency to 10 at the highest. A 0 Hz kernel would
be degenerate (its Gaussian time width is undefined), so the grid starts at
1 Hz. Kernels are unit-L2 so per-frequency power is on a common scale; the
dB baseline normalization downstream cancels any remaining gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import DspError, next_fast_len

DEFAULT_FREQS_HZ = np.arange(1.0, 41.0)
DEFAULT_CYCLES = (0.1, 10.0)


@dataclass(frozen=True, eq=False)
class WaveletBank:
    freqs: np.ndarray
    cycles: np.ndarray
    kernels: tuple[np.ndarray, ...]

    @property
    def n_freqs(self) -> int:
        return len(self.freqs)

    @property
    def max_len(self) -> int:
        return max(len(k) for k in self.kernels)


def build_wavelet_bank(fs: float) -> WaveletBank:
    """Build the Morlet bank on DEFAULT_FREQS_HZ at sampling rate fs.

    Cycle count for frequency f: c_lo + (c_hi - c_lo) * (f - f_min) /
    (f_max - f_min) with (c_lo, c_hi) = DEFAULT_CYCLES. Gaussian time std is
    cycles / (2 pi f); kernel support is +-4 std, odd length, unit L2 norm.
    """
    freqs = DEFAULT_FREQS_HZ
    c_lo, c_hi = DEFAULT_CYCLES
    if fs <= 2.0 * freqs[-1]:
        raise DspError(f"fs={fs} too low for max frequency {freqs[-1]} Hz")

    n_cycles = c_lo + (c_hi - c_lo) * (freqs - freqs[0]) / (freqs[-1] - freqs[0])
    kernels = []
    for f, c in zip(freqs, n_cycles):
        sigma_t = c / (2.0 * np.pi * f)
        half = int(np.ceil(4.0 * sigma_t * fs))
        t = np.arange(-half, half + 1) / fs
        k = np.exp(2j * np.pi * f * t) * np.exp(-(t**2) / (2.0 * sigma_t**2))
        k /= np.sqrt(np.sum(np.abs(k) ** 2))
        kernels.append(k)
    return WaveletBank(freqs=freqs, cycles=n_cycles, kernels=tuple(kernels))


def cwt_power(x: np.ndarray, bank: WaveletBank) -> np.ndarray:
    """[n_freqs, n_samples] squared-magnitude map of same-length convolutions.

    Convolutions run through one shared FFT of the signal; the result matches
    direct convolution to near machine precision.
    """
    x = np.asarray(x, float)
    n = len(x)
    if n < bank.max_len:
        raise DspError(f"signal length {n} shorter than longest kernel {bank.max_len}")
    nfft = next_fast_len(n + bank.max_len - 1)
    spec = np.fft.fft(x, nfft)
    power = np.empty((bank.n_freqs, n))
    for i, k in enumerate(bank.kernels):
        full = np.fft.ifft(spec * np.fft.fft(k, nfft))
        start = (len(k) - 1) // 2
        power[i] = np.abs(full[start : start + n]) ** 2
    return power
