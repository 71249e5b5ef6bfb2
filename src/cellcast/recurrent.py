"""From-scratch LSTM and GRU networks in plain numpy.

A network is a fixed first recurrent layer (input dim 1, one unit per
window position), a stack of wider recurrent layers, and a one-neuron
dense head with a hard-sigmoid activation. The length-4 input window is
consumed as a 4-step univariate sequence; every recurrent layer hands
its full hidden sequence upward and only the last timestep reaches the
head.

Each layer stores its gates stacked: W_x (G*U, D), W_h (G*U, U) and
b (G*U) with G = 4 gates for the LSTM and 3 for the GRU, plus a (3U)
peephole block for the LSTM. Every parameter of a network is a view
into one flat float64 vector. forward() projects the input of all
timesteps with one GEMM per layer, then runs one recurrent GEMM per
step, recording every intermediate on a tape of preallocated
(T, rows, B) arrays. backward() replays the tape to produce exact
reverse-mode gradients of the batch-mean squared error, in a flat
vector laid out like the parameters; only the recurrent GEMM stays in
its per-step loop, and each weight block's gradient is one GEMM over
the time-stacked activations. ADAM updates the flat vector in place.

The LSTM carries peephole connections (gates read the cell state
directly); they can be switched off for comparison. The cell-input and
cell-output activations default to the logistic sigmoid and can be set
to tanh. The GRU candidate activation is tanh, not configurable, and
its biases can be dropped.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import jsonfile
from .errors import Empty, LengthMismatch, MalformedModel, ShapeMismatch, TapeMismatch
from .prep import WINDOW, MinMaxScaler

# Version written into model files. Formats 1 (no such field, indented)
# and 2 hold one key per gate array of each layer and still load.
MODEL_FORMAT = 3


# ---------------------------------------------------------------------------
# activations

def sigmoid(x, out=None):
    """Logistic function 1 / (1 + exp(-x)), saturating on both tails
    (exp overflows to inf below x = -709, giving 0, never NaN). Writes
    into `out` when given."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    with np.errstate(over="ignore"):
        np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def hard_sigmoid(x):
    """Piecewise-linear clamp(0.2 x + 0.5, 0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.clip(0.2 * x + 0.5, 0.0, 1.0)


def tanh(x, out=None):
    return np.tanh(np.asarray(x, dtype=np.float64), out=out)


def _dsigmoid_from_y(y, out=None):
    out = np.subtract(1.0, y, out=out)
    out *= y
    return out


def _dtanh_from_y(y, out=None):
    out = np.multiply(y, y, out=out)
    return np.subtract(1.0, out, out=out)


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
# layer parameters

# Per-gate key -> (block, gate index), in the order of each layer's flat
# vector. The keys name a layer's arrays in parameters() paths and in
# model formats 1 and 2; gate k of a block is its rows k*U:(k+1)*U.
GATES = {
    "lstm": {
        "w_xi": ("wx", 0), "w_xf": ("wx", 1), "w_xc": ("wx", 2), "w_xo": ("wx", 3),
        "w_hi": ("wh", 0), "w_hf": ("wh", 1), "w_hc": ("wh", 2), "w_ho": ("wh", 3),
        "w_ci": ("peep", 0), "w_cf": ("peep", 1), "w_co": ("peep", 2),
        "b_i": ("b", 0), "b_f": ("b", 1), "b_c": ("b", 2), "b_o": ("b", 3),
    },
    "gru": {
        "w_z": ("wx", 0), "w_r": ("wx", 1), "w_h": ("wx", 2),
        "u_z": ("wh", 0), "u_r": ("wh", 1), "u_h": ("wh", 2),
        "b_z": ("b", 0), "b_r": ("b", 1), "b_h": ("b", 2),
    },
}


class _StackedLayer:
    """One recurrent layer's weights, stacked by gate and zero at first.

    wx (G*U, D) and wh (G*U, U) hold the gate blocks in GATES order, b
    (G*U) the biases and, for the LSTM, peep (3U) the i, f and o
    peephole vectors; the OPTIONAL block is None when switched off. All
    blocks are views into one flat vector, `flat`, in that order.
    """

    KIND: str  # the cell kind, which picks the layer's row of GATES
    OPTION: str  # the name of the switch for the OPTIONAL block
    OPTIONAL: str

    def __init__(self, units: int, input_dim: int, optional: bool):
        self.units, self.input_dim = int(units), int(input_dim)
        blocks = [block for block, _ in GATES[self.KIND].values()]  # one entry per gate
        cols = {"wx": (self.input_dim,), "wh": (self.units,)}
        self._shapes = {  # block -> shape, for the blocks present
            block: (self.units * blocks.count(block), *cols.get(block, ()))
            for block in dict.fromkeys(blocks) if optional or block != self.OPTIONAL}
        self._bind(np.zeros(sum(math.prod(shape) for shape in self._shapes.values())))

    def views(self, flat: np.ndarray) -> dict:
        """block -> view into `flat` laid out like this layer (None for a
        block switched off); gives gradient blocks as well as weights."""
        out = dict.fromkeys(block for block, _ in GATES[self.KIND].values())
        offset = 0
        for block, shape in self._shapes.items():
            size = math.prod(shape)
            out[block] = flat[offset:offset + size].reshape(shape)
            offset += size
        return out

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        for block, view in self.views(flat).items():
            setattr(self, block, view)

    def gates(self) -> list[tuple[str, np.ndarray]]:
        """(per-gate key, writable view into its block) for every gate
        present, in flat order."""
        u = self.units
        return [(key, getattr(self, block)[k * u:(k + 1) * u])
                for key, (block, k) in GATES[self.KIND].items() if block in self._shapes]


class LstmLayerParams(_StackedLayer):
    """One LSTM layer, gates in i, f, c, o order; peep is None without
    peepholes."""

    KIND, OPTION, OPTIONAL = "lstm", "peepholes", "peep"

    def __init__(self, units: int, input_dim: int, peepholes: bool = True):
        super().__init__(units, input_dim, peepholes)

    @property
    def peepholes(self) -> bool:
        return self.peep is not None


class GruLayerParams(_StackedLayer):
    """One GRU layer, gates in z, r, candidate order; b is None without
    biases."""

    KIND, OPTION, OPTIONAL = "gru", "biases", "b"

    def __init__(self, units: int, input_dim: int, biases: bool = True):
        super().__init__(units, input_dim, biases)

    @property
    def biases(self) -> bool:
        return self.b is not None


@dataclass
class LstmState:
    """Recurrent carry of one LSTM layer; zeros at sequence start."""

    c: np.ndarray
    h: np.ndarray


@dataclass(eq=False)
class RecurrentNetwork:
    """Recurrent layers plus the dense head, all in one flat float64
    vector, `flat`, in parameters() order.

    Construction copies the layers' weights and the head into `flat`;
    the layers' blocks, head_w and head_b are then views into it, so an
    in-place write through any of them changes the network, and one
    in-place update of `flat` moves every parameter.
    """

    cell_kind: str  # "lstm" or "gru"
    window: int
    activations: Activations
    layers: list  # LstmLayerParams or GruLayerParams
    head_w: np.ndarray  # (last layer units,)
    head_b: np.ndarray  # (1,)

    def __post_init__(self):
        if not self.layers:
            raise ShapeMismatch("layers: a network needs at least one layer")
        for i, layer in enumerate(self.layers):
            expected = 1 if i == 0 else self.layers[i - 1].units
            if layer.input_dim != expected:
                raise ShapeMismatch(f"layers[{i}].input_dim: {layer.input_dim}, expected {expected}")
        last = self.layers[-1].units
        head_w = np.asarray(self.head_w, dtype=np.float64)
        head_b = np.asarray(self.head_b, dtype=np.float64)
        if head_w.shape != (last,):
            raise ShapeMismatch(f"head.w: shape {head_w.shape}, expected ({last},)")
        if head_b.shape != (1,):
            raise ShapeMismatch(f"head.b: shape {head_b.shape}, expected (1,)")

        self.flat = np.empty(sum(layer.flat.size for layer in self.layers) + last + 1)
        self._layer_slices = []
        offset = 0
        for layer in self.layers:
            seg = slice(offset, offset + layer.flat.size)
            self.flat[seg] = layer.flat
            layer._bind(self.flat[seg])
            self._layer_slices.append(seg)
            offset = seg.stop
        self.flat[offset:-1] = head_w
        self.flat[-1] = head_b[0]
        self.head_w, self.head_b = self.flat[offset:-1], self.flat[-1:]

        self._layout = {}
        offset = 0
        for path, arr in self.parameters():
            self._layout[path] = (slice(offset, offset + arr.size), arr.shape)
            offset += arr.size

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """(path, array) view of every trainable parameter, in the order
        of `flat` and shared by gradients."""
        out = [(f"layers.{i}.{key}", view)
               for i, layer in enumerate(self.layers) for key, view in layer.gates()]
        out.append(("head.w", self.head_w))
        out.append(("head.b", self.head_b))
        return out


class Gradients(Mapping):
    """Gradients keyed like RecurrentNetwork.parameters(). Every value is
    a view into `flat`, which is laid out like the network's `flat`."""

    def __init__(self, flat: np.ndarray, layout: dict):
        self.flat = flat
        self._layout = layout

    def __getitem__(self, path: str) -> np.ndarray:
        seg, shape = self._layout[path]
        return self.flat[seg].reshape(shape)

    def __iter__(self):
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._layout)


# ---------------------------------------------------------------------------
# construction

def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


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
    for input_dim, u in dims:
        if cell_kind == "lstm":
            layer = LstmLayerParams(u, input_dim, peepholes)
            layer.b[u:2 * u] = 1.0  # forget-gate warm start
        else:
            layer = GruLayerParams(u, input_dim, gru_biases)
        for w in (layer.wx, layer.wh):  # every input gate, then every recurrent one
            for k in range(0, len(w), u):
                w[k:k + u] = _glorot(rng, u, w.shape[1])
        layers.append(layer)
    last_units = dims[-1][1]
    head_w = _glorot(rng, 1, last_units)[0]
    head_b = np.zeros(1)
    return RecurrentNetwork(cell_kind=cell_kind, window=window,
                            activations=activations, layers=layers,
                            head_w=head_w, head_b=head_b)


# ---------------------------------------------------------------------------
# one layer over a sequence
#
# Activations are feature-major: units by batch. A layer reads its input
# as x2 (D, T*B), timestep t in columns [t*B, (t+1)*B), so the input
# projection of all timesteps is one GEMM; per-step arrays are
# (T, rows, B), so every gate block of a step is contiguous.

def _runs(fns: list, u: int) -> list:
    """[(fn, rows)] over consecutive U-row gate blocks: one entry per run
    of blocks that share fn, so each run takes one call."""
    runs = []
    for k, fn in enumerate(fns):
        if runs and runs[-1][0] is fn:
            runs[-1] = (fn, slice(runs[-1][1].start, (k + 1) * u))
        else:
            runs.append((fn, slice(k * u, (k + 1) * u)))
    return runs


def _time_stacked(steps: np.ndarray) -> np.ndarray:
    """(T, K, B) per-step arrays as one (K, T*B) matrix."""
    return steps.transpose(1, 0, 2).reshape(steps.shape[1], -1)


def _lstm_forward(p: LstmLayerParams, x2, n_steps: int, acts: Activations,
                  h0=None, c0=None) -> dict:
    """Run an LSTM layer over x2 (D, T*B) from state (h0, c0), zero by
    default. The tape holds x2, h and c (T+1, U, B) with the start state
    in row 0, and the activations s (T, 5U, B) of i, f, the candidate,
    o and cell_output(c)."""
    gate, cin, cout = (_resolve(name) for name in
                       (acts.gate, acts.cell_input, acts.cell_output))
    in_runs, out_runs = _runs([gate, gate, cin], p.units), _runs([gate, cout], p.units)
    u, n = p.units, x2.shape[1] // n_steps
    a = p.wx @ x2
    a += p.b[:, None]
    h = np.empty((n_steps + 1, u, n))
    c = np.empty((n_steps + 1, u, n))
    h[0], c[0] = (0.0, 0.0) if h0 is None else (h0, c0)
    s = np.empty((n_steps, 5 * u, n))
    pre = np.empty((5 * u, n))  # pre-activations of i, f, candidate, o, then c
    if p.peepholes:
        peep = p.peep.reshape(3, u, 1)
    for t in range(n_steps):
        st = s[t]
        np.matmul(p.wh, h[t], out=pre[:4 * u])
        pre[:4 * u] += a[:, t * n:(t + 1) * n]
        if p.peepholes:
            pre[:2 * u].reshape(2, u, n)[...] += c[t] * peep[:2]
        for (fn, _), rows in in_runs:
            fn(pre[rows], out=st[rows])
        np.multiply(st[u:2 * u], c[t], out=c[t + 1])
        c[t + 1] += st[:u] * st[2 * u:3 * u]
        if p.peepholes:
            pre[3 * u:4 * u] += c[t + 1] * peep[2]  # output gate peeks at the NEW cell state
        pre[4 * u:] = c[t + 1]
        for (fn, _), rows in out_runs:
            fn(pre[3 * u:][rows], out=st[3 * u:][rows])
        np.multiply(st[3 * u:4 * u], st[4 * u:], out=h[t + 1])
    return {"x2": x2, "h": h, "c": c, "s": s}


def _lstm_backward(p: LstmLayerParams, tape: dict, dh_out, acts: Activations,
                   grad: dict, need_dx: bool):
    """BPTT through one LSTM layer. dh_out (U, T*B) is the loss gradient
    reaching each step's output from above. Writes the weight gradients
    into the `grad` blocks; returns the gradient of the layer input
    (D, T*B), or None when need_dx is false."""
    gate, cin, cout = (_resolve(name) for name in
                       (acts.gate, acts.cell_input, acts.cell_output))
    in_runs, out_runs = _runs([gate, gate, cin], p.units), _runs([gate, cout], p.units)
    x2, h, c, s = tape["x2"], tape["h"], tape["c"], tape["s"]
    n_steps, _, n = s.shape
    u = p.units
    if p.peepholes:
        peep_i, peep_f, peep_o = p.peep.reshape(3, u, 1)
    da = np.empty((n_steps, 4 * u, n))  # d loss / d gate pre-activations
    slopes = np.empty((2 * u, n))  # of o and cell_output(c), this step
    dh_rec = dc = None
    for t in range(n_steps - 1, -1, -1):
        st, dat = s[t], da[t]
        i, f, g, o, sc = (st[k * u:(k + 1) * u] for k in range(5))
        dh = dh_out[:, t * n:(t + 1) * n]
        if dh_rec is not None:
            dh = dh + dh_rec
        for (_, deriv), rows in out_runs:
            deriv(st[3 * u:][rows], out=slopes[rows])
        dc_out = dh * o * slopes[u:]
        dc = dc_out if dc is None else dc + dc_out
        np.multiply(dh * sc, slopes[:u], out=dat[3 * u:])
        if p.peepholes:
            dc = dc + dat[3 * u:] * peep_o
        np.multiply(dc, g, out=dat[:u])
        np.multiply(dc, c[t], out=dat[u:2 * u])
        np.multiply(dc, i, out=dat[2 * u:3 * u])
        for (_, deriv), rows in in_runs:
            dat[rows] *= deriv(st[rows])
        if t == 0:
            break  # the start state is a constant
        dc = dc * f
        if p.peepholes:
            dc = dc + dat[:u] * peep_i + dat[u:2 * u] * peep_f
        dh_rec = p.wh.T @ dat

    da2 = _time_stacked(da)
    np.matmul(da2, x2.T, out=grad["wx"])
    np.matmul(da2, _time_stacked(h[:-1]).T, out=grad["wh"])
    da2.sum(axis=1, out=grad["b"])
    if p.peepholes:
        g_ci, g_cf, g_co = grad["peep"].reshape(3, u)
        np.sum(da[:, :u] * c[:-1], axis=(0, 2), out=g_ci)
        np.sum(da[:, u:2 * u] * c[:-1], axis=(0, 2), out=g_cf)
        np.sum(da[:, 3 * u:] * c[1:], axis=(0, 2), out=g_co)
    return p.wx.T @ da2 if need_dx else None


def _gru_forward(p: GruLayerParams, x2, n_steps: int, acts: Activations, h0=None) -> dict:
    """Run a GRU layer over x2 (D, T*B) from state h0, zero by default.
    The tape holds x2, h (T+1, U, B) with the start state in row 0, the
    activations s (T, 3U, B) of z, r and the candidate, and the
    recurrent projection hw = W_h @ h_prev (T, 3U, B)."""
    gate_fn = _resolve(acts.gate)[0]
    u, n = p.units, x2.shape[1] // n_steps
    a = p.wx @ x2
    if p.biases:
        a += p.b[:, None]
    h = np.empty((n_steps + 1, u, n))
    h[0] = 0.0 if h0 is None else h0
    s = np.empty((n_steps, 3 * u, n))
    hw = np.empty((n_steps, 3 * u, n))
    for t in range(n_steps):
        st, hwt, at = s[t], hw[t], a[:, t * n:(t + 1) * n]
        np.matmul(p.wh, h[t], out=hwt)
        gate_fn(at[:2 * u] + hwt[:2 * u], out=st[:2 * u])
        z = st[:u]
        np.tanh(at[2 * u:] + st[u:2 * u] * hwt[2 * u:], out=st[2 * u:])
        np.multiply(1.0 - z, h[t], out=h[t + 1])
        h[t + 1] += z * st[2 * u:]
    return {"x2": x2, "h": h, "s": s, "hw": hw}


def _gru_backward(p: GruLayerParams, tape: dict, dh_out, acts: Activations,
                  grad: dict, need_dx: bool):
    """BPTT through one GRU layer; see _lstm_backward."""
    gate_d = _resolve(acts.gate)[1]
    x2, h, s, hw = tape["x2"], tape["h"], tape["s"], tape["hw"]
    n_steps, _, n = s.shape
    u = p.units
    da = np.empty((n_steps, 3 * u, n))  # d loss / d pre-activations, input side
    dah = np.empty((n_steps, 3 * u, n))  # the same for the recurrent weights
    dh_rec = None
    for t in range(n_steps - 1, -1, -1):
        st, dat = s[t], da[t]
        z, r, cand = st[:u], st[u:2 * u], st[2 * u:]
        dh = dh_out[:, t * n:(t + 1) * n]
        if dh_rec is not None:
            dh = dh + dh_rec
        np.multiply(dh * z, _dtanh_from_y(cand), out=dat[2 * u:])
        np.multiply(dh, cand - h[t], out=dat[:u])
        np.multiply(dat[2 * u:], hw[t, 2 * u:], out=dat[u:2 * u])
        dat[:2 * u] *= gate_d(st[:2 * u])
        dah[t, :2 * u] = dat[:2 * u]
        np.multiply(dat[2 * u:], r, out=dah[t, 2 * u:])
        if t > 0:
            dh_rec = dh * (1.0 - z) + p.wh.T @ dah[t]

    da2 = _time_stacked(da)
    np.matmul(da2, x2.T, out=grad["wx"])
    np.matmul(_time_stacked(dah), _time_stacked(h[:-1]).T, out=grad["wh"])
    if p.biases:
        da2.sum(axis=1, out=grad["b"])
    return p.wx.T @ da2 if need_dx else None


# ---------------------------------------------------------------------------
# cell steps

def lstm_step(params: LstmLayerParams, x_t: np.ndarray, state: LstmState,
              activations: Activations = DEFAULT_ACTIVATIONS) -> tuple[np.ndarray, LstmState]:
    """One LSTM timestep for a single d-dimensional input vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatch(f"x_t shape {x_t.shape}, expected ({params.input_dim},)")
    if state.h.shape != (params.units,) or state.c.shape != (params.units,):
        raise ShapeMismatch(f"state shapes {state.h.shape}/{state.c.shape}, "
                            f"expected ({params.units},)")
    tape = _lstm_forward(params, x_t[:, None], 1, activations,
                         state.h[:, None], state.c[:, None])
    h, c = tape["h"][1, :, 0], tape["c"][1, :, 0]
    return h, LstmState(c=c, h=h)


def gru_step(params: GruLayerParams, x_t: np.ndarray, h_prev: np.ndarray,
             activations: Activations = DEFAULT_ACTIVATIONS) -> np.ndarray:
    """One GRU timestep for a single d-dimensional input vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatch(f"x_t shape {x_t.shape}, expected ({params.input_dim},)")
    if h_prev.shape != (params.units,):
        raise ShapeMismatch(f"h_prev shape {h_prev.shape}, expected ({params.units},)")
    return _gru_forward(params, x_t[:, None], 1, activations, h_prev[:, None])["h"][1, :, 0]


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

    layer_forward = _lstm_forward if net.cell_kind == "lstm" else _gru_forward
    x2 = np.ascontiguousarray(batch.T).reshape(1, -1)  # one univariate step per B columns
    layer_tapes = []
    for layer in net.layers:
        layer_tapes.append(layer_forward(layer, x2, net.window, net.activations))
        x2 = _time_stacked(layer_tapes[-1]["h"][1:])

    h_last = layer_tapes[-1]["h"][-1]  # (U, B)
    pre_head = net.head_w @ h_last + net.head_b[0]
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

def backward(net: RecurrentNetwork, targets: np.ndarray, tape: dict) -> Gradients:
    """Exact gradients of the batch-mean squared error with respect to
    every parameter, keyed like RecurrentNetwork.parameters() and stored
    in one flat vector laid out like the network's.

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

    grads = Gradients(np.empty_like(net.flat), net._layout)
    grads["head.w"][...] = tape["h_last"] @ dpre
    grads["head.b"][0] = dpre.sum()

    layer_backward = _lstm_backward if net.cell_kind == "lstm" else _gru_backward
    dh = np.zeros((net.layers[-1].units, net.window * n))
    dh[:, -n:] = net.head_w[:, None] * dpre[None, :]
    for idx in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[idx]
        # what this layer read is what the one below wrote
        dh = layer_backward(layer, tape["layer_tapes"][idx], dh, net.activations,
                            layer.views(grads.flat[net._layer_slices[idx]]), need_dx=idx > 0)
    return grads


# ---------------------------------------------------------------------------
# ADAM

@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


# Elements per ADAM block: the six arrays of a block (param, grad, m, v
# and two scratch arrays, 1.5 MB) stay in a core's L2 cache through the
# dozen passes of the update, which streams each array from memory once.
ADAM_BLOCK = 32_768


def _adam_in_place(param, grad, m, v, t: int, cfg: AdamConfig) -> None:
    """One bias-corrected ADAM step written into param, m and v, flat
    arrays of one size, block by block."""
    a = np.empty(min(param.size, ADAM_BLOCK))
    b = np.empty_like(a)
    for start in range(0, param.size, ADAM_BLOCK):
        seg = slice(start, start + ADAM_BLOCK)
        p, g, mb, vb = param[seg], grad[seg], m[seg], v[seg]
        ab, bb = a[:p.size], b[:p.size]
        mb *= cfg.beta1
        mb += np.multiply(1.0 - cfg.beta1, g, out=ab)
        np.multiply(1.0 - cfg.beta2, g, out=ab)
        ab *= g
        vb *= cfg.beta2
        vb += ab
        np.divide(mb, 1.0 - cfg.beta1 ** t, out=ab)  # m_hat
        np.divide(vb, 1.0 - cfg.beta2 ** t, out=bb)  # v_hat
        np.sqrt(bb, out=bb)
        bb += cfg.eps
        ab *= cfg.alpha
        ab /= bb
        p -= ab


def adam_update(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, cfg: AdamConfig = AdamConfig()):
    """One bias-corrected ADAM step on a single array; returns
    (new_param, new_m, new_v) without mutating the inputs."""
    param = np.array(param, dtype=np.float64, order="C")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != param.shape:
        raise ShapeMismatch(f"grad shape {grad.shape} vs param {param.shape}")
    if t < 1:
        raise ValueError("step count t starts at 1")
    m = np.array(m, dtype=np.float64, order="C")
    v = np.array(v, dtype=np.float64, order="C")
    _adam_in_place(param.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1), t, cfg)
    return param, m, v


class AdamOptimizer:
    """First and second moments of a whole network, flat like its
    parameters, so a step is one in-place update of `net.flat`."""

    def __init__(self, net: RecurrentNetwork, cfg: AdamConfig = AdamConfig()):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)

    def step(self, net: RecurrentNetwork, grads: Gradients) -> None:
        """Apply the gradients that backward() returned for `net`."""
        if grads.flat.shape != net.flat.shape:
            raise ShapeMismatch(f"gradient size {grads.flat.size}, network size {net.flat.size}")
        self.t += 1
        _adam_in_place(net.flat, grads.flat, self.m, self.v, self.t, self.cfg)


# ---------------------------------------------------------------------------
# persistence

def save_model_json(net: RecurrentNetwork, scaler: MinMaxScaler | None, path: str) -> None:
    """Write the network as one line of JSON: a header that describes the
    layers, then `net.flat` as base64 of its little-endian float64 bytes."""
    payload = {
        "format": MODEL_FORMAT,
        "cell_kind": net.cell_kind,
        "window": net.window,
        "activations": {
            "gate": net.activations.gate,
            "cell_input": net.activations.cell_input,
            "cell_output": net.activations.cell_output,
        },
        "scaler": ({"lo": scaler.lo, "hi": scaler.hi} if scaler is not None else None),
        "layers": [{"input_dim": layer.input_dim, "units": layer.units,
                    layer.OPTION: layer.OPTIONAL in layer._shapes} for layer in net.layers],
        "parameters": base64.b64encode(net.flat.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))
        fh.write("\n")


# The top-level keys of a format-3 file, all required.
_HEADER = {"format", "cell_kind", "window", "activations", "scaler", "layers", "parameters"}


def _layer_from_entry(layer_cls, entry, where: str, version: int):
    """One entry of a file's `layers` list as a zero layer (format 3,
    whose weights are in the blob) or a layer holding the entry's
    per-gate arrays (formats 1 and 2, where the optional gate arrays are
    all given or all left out)."""
    input_dim = jsonfile.positive_int(entry, "input_dim", where)
    units = jsonfile.positive_int(entry, "units", where)
    table = GATES[layer_cls.KIND]
    fields = {layer_cls.OPTION} if version == MODEL_FORMAT else set(table)
    unknown = sorted(set(entry) - fields - {"input_dim", "units"})
    if unknown:
        raise MalformedModel(f"{where}{unknown[0]}: unknown key for a {layer_cls.KIND} layer")
    if version == MODEL_FORMAT:
        option = jsonfile.key(entry, layer_cls.OPTION, where)
        if not isinstance(option, bool):
            raise MalformedModel(f"{where}{layer_cls.OPTION}: {option!r}, expected true or false")
        return layer_cls(units, input_dim, option)

    layer = layer_cls(units, input_dim, any(
        entry.get(key) is not None
        for key, (block, _) in table.items() if block == layer_cls.OPTIONAL))
    for key, view in layer.gates():
        if entry.get(key) is None:
            raise MalformedModel(f"{where}{key}: missing")
        try:
            value = np.asarray(entry[key], dtype=np.float64)
        except (TypeError, ValueError):
            raise MalformedModel(f"{where}{key}: not a numeric array of shape {view.shape}") from None
        if value.shape != view.shape:
            raise MalformedModel(f"{where}{key}: shape {value.shape}, expected {view.shape}")
        view[...] = value
    return layer


def _blob(text, size: int) -> np.ndarray:
    """The base64 `parameters` of a format-3 file as `size` float64 values."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):
        raise MalformedModel("parameters: not base64") from None
    if len(raw) != 8 * size:
        count = f"{len(raw) // 8} values" if len(raw) % 8 == 0 else f"{len(raw)} bytes"
        raise MalformedModel(f"parameters: {count}, expected {size}")
    return np.frombuffer(raw, dtype="<f8")


def _model_from_payload(payload) -> tuple[RecurrentNetwork, MinMaxScaler | None]:
    version = payload.get("format", 1)
    if version not in (1, 2, MODEL_FORMAT):
        raise MalformedModel(f"format: {version!r}, expected 1, 2 or {MODEL_FORMAT}")
    if version == MODEL_FORMAT:
        mismatch = sorted(_HEADER ^ set(payload))
        if mismatch:
            name = mismatch[0]
            raise MalformedModel(f"{name}: {'missing' if name in _HEADER else 'unknown key'}")
    kind = jsonfile.key(payload, "cell_kind")
    layer_cls = {"lstm": LstmLayerParams, "gru": GruLayerParams}.get(kind)
    if layer_cls is None:
        raise MalformedModel(f"cell_kind: {kind!r}, expected 'lstm' or 'gru'")
    raw_acts = jsonfile.key(payload, "activations")
    acts = {}
    for name in ("gate", "cell_input", "cell_output"):
        acts[name] = jsonfile.key(raw_acts, name, "activations.")
        if acts[name] not in _ACTIVATIONS:
            raise MalformedModel(f"activations.{name}: {acts[name]!r}, "
                                 f"expected one of {sorted(_ACTIVATIONS)}")
    window = jsonfile.positive_int(payload, "window")

    entries = jsonfile.key(payload, "layers")
    if not isinstance(entries, list) or not entries:
        raise MalformedModel("layers: expected a non-empty list")
    layers = [_layer_from_entry(layer_cls, entry, f"layers[{i}].", version)
              for i, entry in enumerate(entries)]
    if version == MODEL_FORMAT:
        head_w, head_b = np.zeros(layers[-1].units), np.zeros(1)  # filled from the blob
    else:
        head = jsonfile.key(payload, "head")
        try:
            head_w = np.asarray(jsonfile.key(head, "w", "head."), dtype=np.float64)
        except (TypeError, ValueError):
            raise MalformedModel("head.w: not a numeric array") from None
        head_b = np.array([jsonfile.number(head, "b", "head.")])
    try:
        net = RecurrentNetwork(cell_kind=kind, window=window, activations=Activations(**acts),
                               layers=layers, head_w=head_w, head_b=head_b)
    except ShapeMismatch as exc:
        raise MalformedModel(str(exc)) from None
    if version == MODEL_FORMAT:
        net.flat[...] = _blob(payload["parameters"], net.flat.size)
    raw = payload.get("scaler")
    scaler = (MinMaxScaler(lo=jsonfile.number(raw, "lo", "scaler."),
                           hi=jsonfile.number(raw, "hi", "scaler."))
              if raw is not None else None)
    return net, scaler


def load_model_json(path: str) -> tuple[RecurrentNetwork, MinMaxScaler | None]:
    """Read a model file of any format up to MODEL_FORMAT. A file that
    does not describe a network raises MalformedModel naming the file
    and the key, e.g. `m.json: parameters: 11308 values, expected 11309`."""
    return jsonfile.load(path, _model_from_payload, MalformedModel)
