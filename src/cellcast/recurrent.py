"""From-scratch LSTM and GRU networks in plain numpy.

A network is a fixed first recurrent layer (input dim 1, one unit per
window position), a stack of wider recurrent layers, and a one-neuron
dense head with a hard-sigmoid activation. The length-4 input window is
consumed as a 4-step univariate sequence; every recurrent layer hands
its full hidden sequence upward and only the last timestep reaches the
head.

forward() records every intermediate on a tape; backward() replays the
tape to produce exact reverse-mode gradients of the batch-mean squared
error, which a small ADAM implementation consumes.

The LSTM carries peephole connections (gates read the cell state
directly); they can be switched off for comparison. The cell-input and
cell-output activations default to the logistic sigmoid and can be set
to tanh. The GRU candidate activation is tanh, not configurable, and
its biases can be dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import Empty, LengthMismatch, ShapeMismatch, TapeMismatch
from .prep import WINDOW, MinMaxScaler


# ---------------------------------------------------------------------------
# activations

def sigmoid(x):
    """Logistic function, stable on both tails (saturates, never NaN)."""
    x = np.asarray(x, dtype=np.float64)
    ex = np.exp(-np.abs(x))  # in (0, 1], so neither branch can overflow
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def hard_sigmoid(x):
    """Piecewise-linear clamp(0.2 x + 0.5, 0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.clip(0.2 * x + 0.5, 0.0, 1.0)


def tanh(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


def _dsigmoid_from_y(y):
    return y * (1.0 - y)


def _dtanh_from_y(y):
    return 1.0 - y * y


# name -> (function, derivative expressed via the function's output)
_ACTIVATIONS = {
    "sigmoid": (sigmoid, _dsigmoid_from_y),
    "tanh": (tanh, _dtanh_from_y),
}


def _resolve(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")


@dataclass(frozen=True)
class Activations:
    """Which squashing functions the recurrent cells use.

    gate: the gate nonlinearity (sigma in the gate equations).
    cell_input / cell_output: the LSTM's candidate and output squashers;
    both default to sigmoid, with tanh as the alternative. Ignored by
    the GRU, whose candidate is always tanh.
    """

    gate: str = "sigmoid"
    cell_input: str = "sigmoid"
    cell_output: str = "sigmoid"


DEFAULT_ACTIVATIONS = Activations()


# ---------------------------------------------------------------------------
# layer parameter containers

@dataclass
class LstmLayerParams:
    """One LSTM layer's weights; peephole vectors are None when disabled."""

    w_xi: np.ndarray  # (units, input_dim)
    w_xf: np.ndarray
    w_xc: np.ndarray
    w_xo: np.ndarray
    w_hi: np.ndarray  # (units, units)
    w_hf: np.ndarray
    w_hc: np.ndarray
    w_ho: np.ndarray
    w_ci: np.ndarray | None  # (units,), element-wise
    w_cf: np.ndarray | None
    w_co: np.ndarray | None
    b_i: np.ndarray  # (units,)
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    @property
    def units(self) -> int:
        return self.w_xi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_xi.shape[1]

    @property
    def peepholes(self) -> bool:
        return self.w_ci is not None

    def names(self) -> list[str]:
        base = ["w_xi", "w_xf", "w_xc", "w_xo", "w_hi", "w_hf", "w_hc", "w_ho"]
        if self.peepholes:
            base += ["w_ci", "w_cf", "w_co"]
        return base + ["b_i", "b_f", "b_c", "b_o"]


@dataclass
class GruLayerParams:
    """One GRU layer's weights; bias vectors are None when disabled."""

    w_z: np.ndarray  # (units, input_dim)
    w_r: np.ndarray
    w_h: np.ndarray
    u_z: np.ndarray  # (units, units)
    u_r: np.ndarray
    u_h: np.ndarray
    b_z: np.ndarray | None  # (units,)
    b_r: np.ndarray | None
    b_h: np.ndarray | None

    @property
    def units(self) -> int:
        return self.w_z.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_z.shape[1]

    @property
    def biases(self) -> bool:
        return self.b_z is not None

    def names(self) -> list[str]:
        base = ["w_z", "w_r", "w_h", "u_z", "u_r", "u_h"]
        if self.biases:
            base += ["b_z", "b_r", "b_h"]
        return base


@dataclass
class LstmState:
    """Recurrent carry of one LSTM layer; zeros at sequence start."""

    c: np.ndarray
    h: np.ndarray


@dataclass
class RecurrentNetwork:
    cell_kind: str  # "lstm" or "gru"
    window: int
    activations: Activations
    layers: list  # LstmLayerParams or GruLayerParams
    head_w: np.ndarray  # (last layer units,)
    head_b: np.ndarray  # (1,)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Flat (path, array) view of every trainable parameter, in a
        fixed order shared by gradients and optimizer state."""
        out = []
        for i, layer in enumerate(self.layers):
            for name in layer.names():
                out.append((f"layers.{i}.{name}", getattr(layer, name)))
        out.append(("head.w", self.head_w))
        out.append(("head.b", self.head_b))
        return out

    def set_parameter(self, path: str, value: np.ndarray) -> None:
        if path == "head.w":
            self.head_w = value
        elif path == "head.b":
            self.head_b = value
        else:
            _, idx, name = path.split(".")
            setattr(self.layers[int(idx)], name, value)


# ---------------------------------------------------------------------------
# construction

def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _init_lstm_layer(rng, input_dim, units, peepholes):
    return LstmLayerParams(
        w_xi=_glorot(rng, units, input_dim),
        w_xf=_glorot(rng, units, input_dim),
        w_xc=_glorot(rng, units, input_dim),
        w_xo=_glorot(rng, units, input_dim),
        w_hi=_glorot(rng, units, units),
        w_hf=_glorot(rng, units, units),
        w_hc=_glorot(rng, units, units),
        w_ho=_glorot(rng, units, units),
        w_ci=np.zeros(units) if peepholes else None,
        w_cf=np.zeros(units) if peepholes else None,
        w_co=np.zeros(units) if peepholes else None,
        b_i=np.zeros(units),
        b_f=np.ones(units),  # forget-gate warm start
        b_c=np.zeros(units),
        b_o=np.zeros(units),
    )


def _init_gru_layer(rng, input_dim, units, biases):
    return GruLayerParams(
        w_z=_glorot(rng, units, input_dim),
        w_r=_glorot(rng, units, input_dim),
        w_h=_glorot(rng, units, input_dim),
        u_z=_glorot(rng, units, units),
        u_r=_glorot(rng, units, units),
        u_h=_glorot(rng, units, units),
        b_z=np.zeros(units) if biases else None,
        b_r=np.zeros(units) if biases else None,
        b_h=np.zeros(units) if biases else None,
    )


def build_network(cell_kind: str, hidden_layers: int, units: int, seed,
                  window: int = WINDOW,
                  activations: Activations = DEFAULT_ACTIVATIONS,
                  peepholes: bool = True,
                  gru_biases: bool = True) -> RecurrentNetwork:
    """Seeded network: fixed first recurrent layer (input dim 1, `window`
    units) plus `hidden_layers` recurrent layers of `units` each, then the
    dense head. Matrices are uniform within the fan-sum limit, biases 0
    except the LSTM forget bias at 1, peepholes 0.
    """
    cell_kind = cell_kind.lower()
    if cell_kind not in ("lstm", "gru"):
        raise ValueError(f"cell_kind must be 'lstm' or 'gru', got {cell_kind!r}")
    if hidden_layers < 0:
        raise ValueError("hidden_layers must be >= 0")
    rng = np.random.default_rng(seed)
    dims = [(1, window)] + [(window if i == 0 else units, units)
                            for i in range(hidden_layers)]
    layers = []
    for input_dim, layer_units in dims:
        if cell_kind == "lstm":
            layers.append(_init_lstm_layer(rng, input_dim, layer_units, peepholes))
        else:
            layers.append(_init_gru_layer(rng, input_dim, layer_units, gru_biases))
    last_units = dims[-1][1]
    head_w = _glorot(rng, 1, last_units)[0]
    head_b = np.zeros(1)
    return RecurrentNetwork(cell_kind=cell_kind, window=window,
                            activations=activations, layers=layers,
                            head_w=head_w, head_b=head_b)


# ---------------------------------------------------------------------------
# cell steps

def _lstm_step_full(params: LstmLayerParams, x, h_prev, c_prev, acts: Activations):
    gate_fn, _ = _resolve(acts.gate)
    cin_fn, _ = _resolve(acts.cell_input)
    cout_fn, _ = _resolve(acts.cell_output)
    a_i = x @ params.w_xi.T + h_prev @ params.w_hi.T + params.b_i
    a_f = x @ params.w_xf.T + h_prev @ params.w_hf.T + params.b_f
    if params.peepholes:
        a_i = a_i + c_prev * params.w_ci
        a_f = a_f + c_prev * params.w_cf
    i = gate_fn(a_i)
    f = gate_fn(a_f)
    g = cin_fn(x @ params.w_xc.T + h_prev @ params.w_hc.T + params.b_c)
    c = f * c_prev + i * g
    a_o = x @ params.w_xo.T + h_prev @ params.w_ho.T + params.b_o
    if params.peepholes:
        a_o = a_o + c * params.w_co  # output gate peeks at the NEW cell state
    o = gate_fn(a_o)
    sc = cout_fn(c)
    h = o * sc
    cache = {"x": x, "h_prev": h_prev, "c_prev": c_prev,
             "i": i, "f": f, "g": g, "o": o, "c": c, "sc": sc}
    return h, c, cache


def lstm_step(params: LstmLayerParams, x_t: np.ndarray, state: LstmState,
              activations: Activations = DEFAULT_ACTIVATIONS) -> tuple[np.ndarray, LstmState]:
    """One LSTM timestep for a single d-dimensional input vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatch(f"x_t shape {x_t.shape}, expected ({params.input_dim},)")
    if state.h.shape != (params.units,) or state.c.shape != (params.units,):
        raise ShapeMismatch(f"state shapes {state.h.shape}/{state.c.shape}, "
                            f"expected ({params.units},)")
    h, c, _ = _lstm_step_full(params, x_t[None, :], state.h[None, :],
                              state.c[None, :], activations)
    return h[0], LstmState(c=c[0], h=h[0])


def _gru_step_full(params: GruLayerParams, x, h_prev, acts: Activations):
    gate_fn, _ = _resolve(acts.gate)
    a_z = x @ params.w_z.T + h_prev @ params.u_z.T
    a_r = x @ params.w_r.T + h_prev @ params.u_r.T
    if params.biases:
        a_z = a_z + params.b_z
        a_r = a_r + params.b_r
    z = gate_fn(a_z)
    r = gate_fn(a_r)
    uh = h_prev @ params.u_h.T
    a_h = x @ params.w_h.T + r * uh
    if params.biases:
        a_h = a_h + params.b_h
    h_tilde = np.tanh(a_h)
    h = (1.0 - z) * h_prev + z * h_tilde
    cache = {"x": x, "h_prev": h_prev, "z": z, "r": r, "uh": uh, "h_tilde": h_tilde}
    return h, cache


def gru_step(params: GruLayerParams, x_t: np.ndarray, h_prev: np.ndarray,
             activations: Activations = DEFAULT_ACTIVATIONS) -> np.ndarray:
    """One GRU timestep for a single d-dimensional input vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatch(f"x_t shape {x_t.shape}, expected ({params.input_dim},)")
    if h_prev.shape != (params.units,):
        raise ShapeMismatch(f"h_prev shape {h_prev.shape}, expected ({params.units},)")
    h, _ = _gru_step_full(params, x_t[None, :], h_prev[None, :], activations)
    return h[0]


# ---------------------------------------------------------------------------
# forward

def forward(net: RecurrentNetwork, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run a window (shape (4,)) or a batch of windows (shape (B, 4))
    through the network. Returns (predictions, tape); predictions match
    the input's batch shape (scalar ndarray for a single window).
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    single = inputs.ndim == 1
    batch = inputs[None, :] if single else inputs
    if batch.ndim != 2 or batch.shape[1] != net.window:
        raise ShapeMismatch(f"input shape {inputs.shape}, expected (*, {net.window})")
    n = batch.shape[0]

    layer_tapes = []
    # sequence of (B, d) inputs, one per timestep
    seq = [batch[:, t:t + 1] for t in range(net.window)]
    for layer in net.layers:
        steps = []
        h = np.zeros((n, layer.units))
        c = np.zeros((n, layer.units))
        out_seq = []
        for x_t in seq:
            if net.cell_kind == "lstm":
                h, c, cache = _lstm_step_full(layer, x_t, h, c, net.activations)
            else:
                h, cache = _gru_step_full(layer, x_t, h, net.activations)
            steps.append(cache)
            out_seq.append(h)
        layer_tapes.append(steps)
        seq = out_seq

    h_last = seq[-1]
    pre_head = h_last @ net.head_w + net.head_b[0]
    preds = hard_sigmoid(pre_head)
    tape = {
        "cell_kind": net.cell_kind,
        "n_layers": len(net.layers),
        "batch_size": n,
        "layer_tapes": layer_tapes,
        "h_last": h_last,
        "pre_head": pre_head,
        "preds": preds,
    }
    return (preds[0] if single else preds), tape


def mse_loss(preds: np.ndarray, targets: np.ndarray) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise LengthMismatch(f"preds {preds.shape} vs targets {targets.shape}")
    if preds.size == 0:
        raise Empty("no predictions to score")
    return float(np.mean((preds - targets) ** 2))


# ---------------------------------------------------------------------------
# backward (exact BPTT)

def _lstm_layer_backward(params: LstmLayerParams, steps, dh_inject, acts: Activations):
    _, gate_d = _resolve(acts.gate)
    _, cin_d = _resolve(acts.cell_input)
    _, cout_d = _resolve(acts.cell_output)
    grads = {name: np.zeros_like(getattr(params, name)) for name in params.names()}
    n = dh_inject[0].shape[0]
    dh_rec = np.zeros((n, params.units))
    dc = np.zeros((n, params.units))
    dx_seq = []
    for t in range(len(steps) - 1, -1, -1):
        s = steps[t]
        dh = dh_inject[t] + dh_rec
        do = dh * s["sc"]
        dc = dc + dh * s["o"] * cout_d(s["sc"])
        da_o = do * gate_d(s["o"])
        if params.peepholes:
            dc = dc + da_o * params.w_co
        di = dc * s["g"]
        dg = dc * s["i"]
        df = dc * s["c_prev"]
        dc_prev = dc * s["f"]
        da_i = di * gate_d(s["i"])
        da_f = df * gate_d(s["f"])
        da_g = dg * cin_d(s["g"])
        if params.peepholes:
            dc_prev = dc_prev + da_i * params.w_ci + da_f * params.w_cf
            grads["w_ci"] += (da_i * s["c_prev"]).sum(axis=0)
            grads["w_cf"] += (da_f * s["c_prev"]).sum(axis=0)
            grads["w_co"] += (da_o * s["c"]).sum(axis=0)
        grads["w_xi"] += da_i.T @ s["x"]
        grads["w_xf"] += da_f.T @ s["x"]
        grads["w_xc"] += da_g.T @ s["x"]
        grads["w_xo"] += da_o.T @ s["x"]
        grads["w_hi"] += da_i.T @ s["h_prev"]
        grads["w_hf"] += da_f.T @ s["h_prev"]
        grads["w_hc"] += da_g.T @ s["h_prev"]
        grads["w_ho"] += da_o.T @ s["h_prev"]
        grads["b_i"] += da_i.sum(axis=0)
        grads["b_f"] += da_f.sum(axis=0)
        grads["b_c"] += da_g.sum(axis=0)
        grads["b_o"] += da_o.sum(axis=0)
        dx_seq.append(da_i @ params.w_xi + da_f @ params.w_xf +
                      da_g @ params.w_xc + da_o @ params.w_xo)
        dh_rec = (da_i @ params.w_hi + da_f @ params.w_hf +
                  da_g @ params.w_hc + da_o @ params.w_ho)
        dc = dc_prev
    dx_seq.reverse()
    return grads, dx_seq


def _gru_layer_backward(params: GruLayerParams, steps, dh_inject, acts: Activations):
    _, gate_d = _resolve(acts.gate)
    grads = {name: np.zeros_like(getattr(params, name)) for name in params.names()}
    n = dh_inject[0].shape[0]
    dh_rec = np.zeros((n, params.units))
    dx_seq = []
    for t in range(len(steps) - 1, -1, -1):
        s = steps[t]
        dh = dh_inject[t] + dh_rec
        dz = dh * (s["h_tilde"] - s["h_prev"])
        dh_tilde = dh * s["z"]
        dh_prev = dh * (1.0 - s["z"])
        da_h = dh_tilde * _dtanh_from_y(s["h_tilde"])
        dr = da_h * s["uh"]
        duh = da_h * s["r"]
        dh_prev = dh_prev + duh @ params.u_h
        da_z = dz * gate_d(s["z"])
        da_r = dr * gate_d(s["r"])
        dh_prev = dh_prev + da_z @ params.u_z + da_r @ params.u_r
        grads["w_z"] += da_z.T @ s["x"]
        grads["w_r"] += da_r.T @ s["x"]
        grads["w_h"] += da_h.T @ s["x"]
        grads["u_z"] += da_z.T @ s["h_prev"]
        grads["u_r"] += da_r.T @ s["h_prev"]
        grads["u_h"] += duh.T @ s["h_prev"]
        if params.biases:
            grads["b_z"] += da_z.sum(axis=0)
            grads["b_r"] += da_r.sum(axis=0)
            grads["b_h"] += da_h.sum(axis=0)
        dx_seq.append(da_z @ params.w_z + da_r @ params.w_r + da_h @ params.w_h)
        dh_rec = dh_prev
    dx_seq.reverse()
    return grads, dx_seq


def backward(net: RecurrentNetwork, targets: np.ndarray, tape: dict) -> dict[str, np.ndarray]:
    """Exact gradients of the batch-mean squared error with respect to
    every parameter, keyed like RecurrentNetwork.parameters().

    The tape must come from forward() on the same network; inputs are
    read back from it.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if tape.get("cell_kind") != net.cell_kind or tape.get("n_layers") != len(net.layers):
        raise TapeMismatch("tape was not produced by this network")
    n = tape["batch_size"]
    if targets.shape != (n,):
        raise TapeMismatch(f"targets shape {targets.shape}, tape batch {n}")

    preds = tape["preds"]
    pre_head = tape["pre_head"]
    dpred = 2.0 * (preds - targets) / n
    # hard sigmoid passes slope 0.2 strictly inside the clamp
    dpre = dpred * np.where((pre_head > -2.5) & (pre_head < 2.5), 0.2, 0.0)

    grads: dict[str, np.ndarray] = {
        "head.w": tape["h_last"].T @ dpre,
        "head.b": np.array([dpre.sum()]),
    }

    steps_count = net.window
    top = len(net.layers) - 1
    dh_inject = [np.zeros((n, net.layers[top].units)) for _ in range(steps_count)]
    dh_inject[-1] = dpre[:, None] * net.head_w[None, :]

    for idx in range(top, -1, -1):
        layer = net.layers[idx]
        steps = tape["layer_tapes"][idx]
        if net.cell_kind == "lstm":
            layer_grads, dx_seq = _lstm_layer_backward(layer, steps, dh_inject, net.activations)
        else:
            layer_grads, dx_seq = _gru_layer_backward(layer, steps, dh_inject, net.activations)
        for name, g in layer_grads.items():
            grads[f"layers.{idx}.{name}"] = g
        dh_inject = dx_seq  # what this layer read is what the one below wrote
    return grads


# ---------------------------------------------------------------------------
# ADAM

@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_update(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, cfg: AdamConfig = AdamConfig()):
    """One bias-corrected ADAM step on a single array; returns
    (new_param, new_m, new_v) without mutating the inputs."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape:
        raise ShapeMismatch(f"grad shape {grad.shape} vs param {param.shape}")
    if t < 1:
        raise ValueError("step count t starts at 1")
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    return param - cfg.alpha * m_hat / (np.sqrt(v_hat) + cfg.eps), m, v


class AdamOptimizer:
    """Per-parameter first and second moments for a whole network."""

    def __init__(self, net: RecurrentNetwork, cfg: AdamConfig = AdamConfig()):
        self.cfg = cfg
        self.t = 0
        self.m = {path: np.zeros_like(p) for path, p in net.parameters()}
        self.v = {path: np.zeros_like(p) for path, p in net.parameters()}

    def step(self, net: RecurrentNetwork, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for path, param in net.parameters():
            new_param, self.m[path], self.v[path] = adam_update(
                param, grads[path], self.m[path], self.v[path], self.t, self.cfg)
            net.set_parameter(path, new_param)


# ---------------------------------------------------------------------------
# persistence

def save_model_json(net: RecurrentNetwork, scaler: MinMaxScaler | None, path: str) -> None:
    layers = []
    for layer in net.layers:
        entry = {"input_dim": layer.input_dim, "units": layer.units}
        for name in layer.names():
            arr = getattr(layer, name)
            entry[name] = arr.tolist()
        layers.append(entry)
    payload = {
        "cell_kind": net.cell_kind,
        "window": net.window,
        "activations": {
            "gate": net.activations.gate,
            "cell_input": net.activations.cell_input,
            "cell_output": net.activations.cell_output,
        },
        "layers": layers,
        "head": {"w": net.head_w.tolist(), "b": float(net.head_b[0])},
        "scaler": ({"lo": scaler.lo, "hi": scaler.hi} if scaler is not None else None),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model_json(path: str) -> tuple[RecurrentNetwork, MinMaxScaler | None]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cell_kind = payload["cell_kind"]
    layers = []
    for entry in payload["layers"]:
        arrays = {k: np.asarray(v, dtype=np.float64)
                  for k, v in entry.items() if k not in ("input_dim", "units")}
        if cell_kind == "lstm":
            for name in ("w_ci", "w_cf", "w_co"):
                arrays.setdefault(name, None)
            layers.append(LstmLayerParams(**arrays))
        else:
            for name in ("b_z", "b_r", "b_h"):
                arrays.setdefault(name, None)
            layers.append(GruLayerParams(**arrays))
    acts = payload["activations"]
    net = RecurrentNetwork(
        cell_kind=cell_kind,
        window=int(payload["window"]),
        activations=Activations(gate=acts["gate"], cell_input=acts["cell_input"],
                                cell_output=acts["cell_output"]),
        layers=layers,
        head_w=np.asarray(payload["head"]["w"], dtype=np.float64),
        head_b=np.array([float(payload["head"]["b"])]),
    )
    raw = payload.get("scaler")
    scaler = MinMaxScaler(lo=float(raw["lo"]), hi=float(raw["hi"])) if raw else None
    return net, scaler
