"""Step the recurrent cells by hand and check a gradient numerically.

Both cell kinds are plain numpy. With every parameter at zero the LSTM
gates all sit at one half, which pins the step output to a value you can
work out on paper; the GRU collapses to zero. The same forward pass
drives backpropagation through time, compared here against a central
finite difference on one arbitrary weight.
"""

import numpy as np

from cellcast import (
    GruLayerParams,
    LstmLayerParams,
    LstmState,
    backward,
    build_network,
    forward,
    gru_step,
    lstm_step,
    sigmoid,
)

z = np.zeros
lstm = LstmLayerParams(units=2, input_dim=1)  # every block starts at zero
h, state = lstm_step(lstm, np.array([1.0]), LstmState(c=z(2), h=z(2)))
print("zero-parameter LSTM step:")
print(f"  every gate = sigmoid(0) = 0.5, cell = 0.5 * 0.5 = {state.c[0]:.4f}")
print(f"  h = 0.5 * sigmoid(0.25) = {h[0]:.5f}")

gru = GruLayerParams(units=2, input_dim=1)
h = gru_step(gru, np.array([1.0]), z(2))
print(f"zero-parameter GRU step: h = {h}")

# Now a seeded two-layer network and a numeric check of one gradient.
net = build_network("lstm", hidden_layers=1, units=6, seed=2)
rng = np.random.default_rng(2)
inputs = rng.random((5, 4))
targets = rng.random(5)

preds, tape = forward(net, inputs)
grads = backward(net, targets, tape)

path, arr = net.parameters()[3]
analytic = float(np.asarray(grads[path]).ravel()[0])

eps = 1e-5
flat = arr.ravel()
orig = flat[0]
flat[0] = orig + eps
plus, _ = forward(net, inputs)
flat[0] = orig - eps
minus, _ = forward(net, inputs)
flat[0] = orig
numeric = float(np.mean((plus - minus) * (plus + minus - 2.0 * targets))) / (2.0 * eps)

print(f"\ngradient of the training loss wrt {path}[0]:")
print(f"  backpropagation: {analytic:+.10f}")
print(f"  finite difference: {numeric:+.10f}")
print(f"  relative error: {abs(analytic - numeric) / abs(analytic):.2e}")
