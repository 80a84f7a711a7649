"""Extract the 640-column trial feature matrix and poke at its families.

Per trial: 8 channels x 7 windows x 6 statistics = 336 ERP features, 8
fold-time LDA slots, 8 x 7 = 56 wavelet time-frequency features (dB versus
the block baseline), and 8 x 5 bands x 6 statistics = 240 Hilbert envelope
features.
"""

from collections import Counter

from attndecode import SynthConfig, extract_features, preprocess, synthesize
from attndecode.features import parse_column, write_feature_matrix, write_tf_class_maps
from attndecode.wavelets import build_wavelet_bank

rec = synthesize(SynthConfig(n_blocks=2, trials_per_block=20, seed=11))
pre = preprocess(rec)
fm, tf_maps = extract_features(pre)

print(f"feature matrix: {fm.values.shape[0]} trials x {fm.values.shape[1]} columns")
families = Counter(parse_column(name)[0] for name in fm.columns)
print("columns per family:", dict(families))

# the wavelet bank behind the tf features
bank = build_wavelet_bank(fs=pre.fs)
print(f"\nwavelet bank: {bank.n_freqs} kernels, "
      f"{bank.cycles[0]:.1f} cycles at {bank.freqs[0]:g} Hz up to "
      f"{bank.cycles[-1]:.1f} at {bank.freqs[-1]:g} Hz")

# class contrast of a few features
for name in ("hilb:PO7:theta:mean", "hilb:Oz:alpha:mean", "tf:PO7:peak_freq"):
    col = fm.columns.index(name)
    v = fm.values[:, col]
    face = v[fm.is_face].mean()
    scene = v[~fm.is_face].mean()
    print(f"{name:22s} face {face:8.3f}   scene {scene:8.3f}")

write_feature_matrix(fm, "out/demo_features")
write_tf_class_maps(tf_maps, bank.freqs, "out/demo_features")
print("\nwrote out/demo_features/{features.csv, erp_epochs.csv, tf_class_means.csv}")
