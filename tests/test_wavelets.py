import numpy as np
import pytest

from attndecode import DspError, build_wavelet_bank, cwt_power

FS = 250.0


def test_cycle_endpoints_match_linear_ramp():
    bank = build_wavelet_bank(fs=FS)
    assert bank.freqs[0] == 1.0 and bank.freqs[-1] == 40.0
    assert bank.cycles[0] == pytest.approx(0.1)
    assert bank.cycles[-1] == pytest.approx(10.0)
    # linear in f: n(20) halfway-ish between endpoints
    expected = 0.1 + (10.0 - 0.1) * (20.0 - 1.0) / 39.0
    assert bank.cycles[19] == pytest.approx(expected)


def test_bank_has_40_unit_norm_odd_kernels():
    bank = build_wavelet_bank(fs=FS)
    assert bank.n_freqs == 40
    for k in bank.kernels:
        assert len(k) % 2 == 1
        assert np.sqrt(np.sum(np.abs(k) ** 2)) == pytest.approx(1.0, abs=1e-9)


def test_cycles_strictly_increasing():
    bank = build_wavelet_bank(fs=FS)
    assert np.all(np.diff(bank.cycles) > 0)


@pytest.mark.parametrize("tone_hz", [5.0, 10.0, 20.0, 35.0])
def test_tone_peak_frequency_recovered_exactly(tone_hz):
    bank = build_wavelet_bank(fs=FS)
    t = np.arange(int(4 * FS)) / FS
    x = np.sin(2.0 * np.pi * tone_hz * t)
    power = cwt_power(x, bank)
    interior = power[:, int(FS) : -int(FS)]
    peak = bank.freqs[np.argmax(interior.mean(axis=1))]
    assert peak == tone_hz


def test_fft_convolution_matches_direct_oracle():
    bank = build_wavelet_bank(fs=FS)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(int(FS))
    power = cwt_power(x, bank)
    for i, k in enumerate(bank.kernels):
        direct = np.abs(np.convolve(x, k, mode="same")) ** 2
        scale = np.maximum(direct, 1e-30)
        assert np.max(np.abs(power[i] - direct) / scale) < 1e-6


def test_zero_signal_zero_map():
    bank = build_wavelet_bank(fs=FS)
    power = cwt_power(np.zeros(500), bank)
    assert power.shape == (40, 500)
    np.testing.assert_array_equal(power, np.zeros((40, 500)))


def test_power_nonnegative_on_noise():
    bank = build_wavelet_bank(fs=FS)
    x = np.random.default_rng(1).standard_normal(1000)
    assert np.all(cwt_power(x, bank) >= 0.0)


def test_signal_shorter_than_kernel_rejected():
    bank = build_wavelet_bank(fs=FS)
    with pytest.raises(DspError, match="shorter"):
        cwt_power(np.zeros(bank.max_len - 1), bank)


def test_bank_validation():
    with pytest.raises(DspError, match="too low"):
        build_wavelet_bank(fs=60.0)
