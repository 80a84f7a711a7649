"""Generate a synthetic attention-task recording and look inside it.

The generator emits the full session layout per block (5 s cue, 7 s grey
baseline, forty 1 s stimulus trials, 10 s rest) on 1/f background noise with
sparse amplitude spikes. Face blocks carry a negative deflection near 170 ms
on PO7/PO8 plus a theta burst; scene blocks carry an occipital alpha burst.
"""

import numpy as np

from attndecode import SynthConfig, load_recording, synthesize, write_recording

cfg = SynthConfig(n_blocks=4, trials_per_block=20, snr_preset="easy", seed=7)
rec = synthesize(cfg)

print(f"subject={rec.subject_id} fs={rec.fs:g} Hz")
print(f"{rec.n_blocks} blocks x {rec.trials_per_block} trials = {rec.n_trials} trials")
print("block labels:", rec.block_labels)
print("channels:", ", ".join(rec.channels))

# per-class band power on PO7 straight from the raw signal
def band_power(x, fs, lo, hi):
    spec = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(len(x), 1.0 / fs)
    return spec[(f >= lo) & (f < hi)].sum()

c = rec.channels.index("PO7")
theta = {"face": [], "scene": []}
alpha = {"face": [], "scene": []}
for b in range(rec.n_blocks):
    lab = rec.block_labels[b]
    for t in range(rec.trials_per_block):
        start = rec.trial_starts()[b, t]
        x = rec.samples[c, start : start + int(rec.fs)]
        theta[lab].append(band_power(x, rec.fs, 4, 8))
        alpha[lab].append(band_power(x, rec.fs, 8, 14))

print("\nPO7 mean band power per trial (arbitrary units):")
for lab in ("face", "scene"):
    print(f"  {lab:5s}: theta {np.mean(theta[lab]):8.1f}   alpha {np.mean(alpha[lab]):8.1f}")

spikes = rec.extra["synth_truth"]["spike_samples"]["PO7"]
print(f"\ninjected spikes on PO7: {len(spikes)} " f"(first at sample {spikes[0]})")

write_recording(rec, "out/demo_dataset")
again = load_recording("out/demo_dataset")
print("\nround trip exact:", bool(np.array_equal(again.samples, rec.samples)))
print("dataset written to out/demo_dataset/ (meta.json + recording.csv)")
