"""Turn one series into leak-free supervised windows.

The split is chronological, the scaler is fitted on the training
portion only, and each portion is windowed separately so no sample ever
straddles the boundary. Test values may then fall outside [0, 1]; the
scaler deliberately does not clip them.
"""

import numpy as np

from cellcast import fit_scaler, make_windows, split_train_test

t = np.arange(10 * 48)
series = 50.0 + 30.0 * np.sin(2.0 * np.pi * t / 48) + 2.0 * np.sin(2.0 * np.pi * t / 7)

train, test = split_train_test(series)
print(f"{series.size} values split chronologically into {train.size} train "
      f"+ {test.size} test")

scaler = fit_scaler(train)
print(f"scaler fitted on train only: lo={scaler.lo:.3f} hi={scaler.hi:.3f}")

scaled_train = scaler.transform(train)
scaled_test = scaler.transform(test)
print(f"train maps into [{scaled_train.min():.3f}, {scaled_train.max():.3f}]")
print(f"test maps into  [{scaled_test.min():.3f}, {scaled_test.max():.3f}] "
      "(outside values survive, nothing is clipped)")

windows = make_windows(scaled_train)
print(f"\nwindowing {scaled_train.size} train values gives "
      f"{windows.targets.size} samples of 4 inputs + 1 target")
print("first sample:")
print("  x =", np.array2string(windows.inputs[0], precision=3))
print("  y =", f"{windows.targets[0]:.3f}")

roundtrip = scaler.inverse(scaled_test)
print(f"\ninverse transform restores the raw test values "
      f"(max error {np.abs(roundtrip - test).max():.2e})")
