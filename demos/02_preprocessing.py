"""Walk the preprocessing chain stage by stage on one channel.

Chain: 0.4-40 Hz 5th-order Butterworth (zero phase) -> MAD despiking with
cubic-spline repair -> 7-point nearest-neighbour smoothing -> per-block
baseline subtraction -> global z-scoring over activity samples.
"""

import numpy as np

from attndecode import (
    SynthConfig,
    bandpass_gain,
    despike_mad,
    filtfilt,
    knn_smooth,
    preprocess,
    synthesize,
)

rec = synthesize(SynthConfig(n_blocks=2, trials_per_block=10, seed=3))
c = rec.channels.index("Cz")
x = rec.samples[c]

gain = bandpass_gain(5, 0.4, 40.0, rec.fs, [4.0, 60.0])
print("zero-phase Butterworth band-pass: order 5, band 0.4-40 Hz")
print(f"  gain at  4 Hz: {gain[0]:.4f}")
print(f"  gain at 60 Hz: {gain[1]:.2e}")

y = filtfilt(x, 5, 0.4, 40.0, rec.fs)
y2, flagged = despike_mad(y, k=5.0)
print(f"\ndespiking flagged {flagged.size} samples "
      f"({100 * flagged.size / len(y):.3f}% of the channel)")
y3 = knn_smooth(y2, k=7)
print(f"smoothing variance ratio: {y3.var() / y2.var():.3f}")

pre = preprocess(rec)
act = np.concatenate(
    [pre.samples[:, pre.phase_slice(b, "activity")] for b in range(pre.n_blocks)],
    axis=1,
)
print("\nafter the full chain, activity per channel:")
print("  means:", np.round(act.mean(axis=1), 12))
print("  stds: ", np.round(act.std(axis=1), 12))

truth = rec.extra["synth_truth"]["spike_samples"]["Cz"]
worst = np.max(np.abs(pre.samples[c, np.array(truth)]))
print(f"\nlargest preprocessed value at an injected spike position: {worst:.2f} sd")
