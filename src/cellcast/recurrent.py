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
step, recording every intermediate on a Tape of (T, rows, B) arrays
that training allocates once per batch size and reuses for every
step. backward() replays the tape to produce exact reverse-mode
gradients of the batch-mean squared error, in a flat vector laid out
like the parameters; only the recurrent GEMM stays in
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
import functools
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
        return _sigmoid(x, out=out)


def _sigmoid(x, out):
    """sigmoid() as the gate kernel: float64 x, a given out, and the
    overflow of exp left to the caller's np.errstate."""
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


# name -> (kernel, derivative expressed via the function's output)
_ACTIVATIONS = {
    "sigmoid": (_sigmoid, _dsigmoid_from_y),
    "tanh": (np.tanh, _dtanh_from_y),
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
# (T, rows, B), so every gate block of a step is contiguous. A layer tape
# allocates these arrays, their per-step views and its scratch once, and
# every pass writes into them. Each temporary of the equations has a
# scratch array filled by the same operation on the same operands, so a
# reused tape gives the bits of a fresh one.

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


def _time_stacked(steps: np.ndarray, buffer=None) -> tuple:
    """(T, K, B) per-step arrays as one (K, T*B) matrix laid out as
    numpy's reshape lays it out: a view of `steps` when an axis has length
    1, else `buffer` or a new array. Returns (matrix, refresh), where
    refresh() copies steps into the matrix (nothing to do for a view)."""
    n_steps, k, n = steps.shape
    source = steps.transpose(1, 0, 2)
    if 1 in steps.shape:
        return source.reshape(k, n_steps * n), lambda: None
    stacked = np.empty((k, n_steps * n)) if buffer is None else buffer
    return stacked, functools.partial(np.copyto, stacked.reshape(k, n_steps, n), source)


def _by_step(matrix: np.ndarray, n_steps: int) -> list:
    """The (K, B) column block of each timestep of a (K, T*B) matrix."""
    k, cols = matrix.shape
    return list(matrix.reshape(k, n_steps, cols // n_steps).transpose(1, 0, 2))


def _blocks(arr: np.ndarray, u: int) -> tuple:
    """The consecutive U-row gate blocks of arr (rows, B)."""
    return tuple(arr.reshape(len(arr) // u, u, arr.shape[1]))


class _LayerTape:
    """One layer's pass arrays over T steps of B columns.

    The layer reads x2 (D, T*B); backward() writes the gradient of x2
    into dx when one is given. h (T+1, U, B) starts from h0, zero unless
    given. With stacked, forward() also fills hs, h[1:] time-stacked, the
    input of the layer above. backward() starts from dh_out (U, T*B), the
    loss gradient reaching each step's output from above. s holds each
    step's activations, a U-row block per ROWS entry, slopes their
    derivatives and da the gradients of the gate pre-activations.
    """

    ROWS: int

    def __init__(self, p, n_steps: int, x2, dx, stacked: bool, h0):
        u, g, n = p.units, len(p.wx), x2.shape[1] // n_steps
        self.p, self.x2, self.dx, self.last = p, x2, dx, n_steps - 1
        self.h = np.zeros((n_steps + 1, u, n))
        if h0 is not None:
            self.h[0] = h0
        self.s = np.empty((n_steps, self.ROWS * u, n))
        # The input projection a, the slopes and da2 (da time-stacked) are
        # live in turn: forward() reads a, backward() the slopes in its
        # step loop and da2 after it. They share one buffer (G <= ROWS).
        work = np.empty(self.s.size)
        self.a = work[:g * n_steps * n].reshape(g, n_steps * n)
        self.slopes = work.reshape(self.s.shape)
        self.da = np.empty((n_steps, g, n))
        self.dh_out = np.zeros((u, n_steps * n))
        self.dh, self.dh_rec, self.tmp = (np.empty((u, n)) for _ in range(3))
        self.da2, self.stack_da = _time_stacked(self.da, self.a)
        self.hp, self.stack_hp = _time_stacked(self.h[:-1])
        self.hs, self.stack_hs = _time_stacked(self.h[1:]) if stacked else (None, lambda: None)
        # each step's (a_t, h_t, h_next, s_t, dh_t, da_t, slopes_t), for zip
        self.by_step = (_by_step(self.a, n_steps), self.h[:-1], self.h[1:], self.s,
                        _by_step(self.dh_out, n_steps), self.da, self.slopes)

    def _project(self, bias) -> None:
        np.matmul(self.p.wx, self.x2, out=self.a)
        if bias is not None:
            self.a += bias[:, None]

    def _weight_gradients(self, grad: dict, dah2) -> None:
        """The input and recurrent weight gradients, the bias gradient and,
        with dx, the input gradient, from da and dah2 (the time-stacked
        gradients reaching W_h)."""
        self.stack_hp()
        np.matmul(self.da2, self.x2.T, out=grad["wx"])
        np.matmul(dah2, self.hp.T, out=grad["wh"])
        if grad["b"] is not None:
            self.da2.sum(axis=1, out=grad["b"])
        if self.dx is not None:
            np.matmul(self.p.wx.T, self.da2, out=self.dx)


class _LstmTape(_LayerTape):
    """An LSTM layer's tape: s holds i, f, the candidate, o and
    cell_output(c), and c (T+1, U, B) the cell state from c0."""

    ROWS = 5

    def __init__(self, p: LstmLayerParams, acts: Activations, n_steps: int, x2,
                 dx=None, stacked: bool = False, h0=None, c0=None):
        super().__init__(p, n_steps, x2, dx, stacked, h0)
        gate, cin, cout = (_resolve(name) for name in
                           (acts.gate, acts.cell_input, acts.cell_output))
        u, n = p.units, self.h.shape[2]
        self.c = np.zeros_like(self.h)
        if c0 is not None:
            self.c[0] = c0
        self.pre = pre = np.empty((5 * u, n))  # pre-activations of i, f, candidate, o, then c
        self.peep = None if p.peep is None else p.peep.reshape(3, u, 1)
        self.dc, self.peep_tmp = np.empty((u, n)), np.empty((2, u, n))
        self.peep_prod = np.empty((n_steps, u, n))
        in_runs, out_runs = _runs([gate, gate, cin], u), _runs([gate, cout], u)
        self.steps = [
            (a_t, h_t, h_next, c_t, c_next,
             [(fn, pre[rows], s_t[rows]) for (fn, _), rows in in_runs],
             [(fn, pre[3 * u:][rows], s_t[3 * u:][rows]) for (fn, _), rows in out_runs],
             _blocks(s_t, u), dh_t, da_t, _blocks(da_t, u), _blocks(sl_t, u)[3:],
             da_t[:3 * u], sl_t[:3 * u])
            for a_t, h_t, h_next, s_t, dh_t, da_t, sl_t, c_t, c_next
            in zip(*self.by_step, self.c[:-1], self.c[1:])]
        self.deriv_views = [(deriv, self.s[:, rows], self.slopes[:, rows])
                            for (_, deriv), rows in _runs([gate, gate, cin, gate, cout], u)]

    def forward(self) -> None:
        """Run the layer over x2 from its start state."""
        self._project(self.p.b)
        u, wh, peep, tmp, peep_tmp = self.p.units, self.p.wh, self.peep, self.tmp, self.peep_tmp
        pre4, pre_if, pre_o, pre_c = (self.pre[:4 * u], self.pre[:2 * u].reshape(peep_tmp.shape),
                                      self.pre[3 * u:4 * u], self.pre[4 * u:])
        peep_if, peep_o = (None, None) if peep is None else (peep[:2], peep[2])
        for a_t, h_t, h_next, c_t, c_next, in_runs, out_runs, (i, f, g, o, sc), *_ in self.steps:
            np.matmul(wh, h_t, out=pre4)
            pre4 += a_t
            if peep is not None:
                np.multiply(c_t, peep_if, out=peep_tmp)
                pre_if += peep_tmp
            for fn, x, out in in_runs:
                fn(x, out=out)
            np.multiply(f, c_t, out=c_next)
            np.multiply(i, g, out=tmp)
            c_next += tmp
            if peep is not None:
                np.multiply(c_next, peep_o, out=tmp)
                pre_o += tmp  # the output gate peeks at the NEW cell state
            np.copyto(pre_c, c_next)
            for fn, x, out in out_runs:
                fn(x, out=out)
            np.multiply(o, sc, out=h_next)
        self.stack_hs()

    def backward(self, grad: dict) -> None:
        """BPTT from dh_out: writes the weight gradients into the `grad`
        blocks and, with dx, the input gradient."""
        for deriv, y, out in self.deriv_views:
            deriv(y, out=out)
        peep, tmp, dc, wh_t, last = self.peep, self.tmp, self.dc, self.p.wh.T, self.last
        peep_i, peep_f, peep_o = (None, None, None) if peep is None else peep
        for t in range(last, -1, -1):
            (_, _, _, c_t, _, _, _, (i, f, g, o, sc), dh_t, da_t, (d_i, d_f, d_g, d_o),
             (sl_o, sl_sc), da_3, sl_3) = self.steps[t]
            dh = dh_t if t == last else np.add(dh_t, self.dh_rec, out=self.dh)
            if t == last:
                np.multiply(dh, o, out=dc)
                dc *= sl_sc
            else:
                np.multiply(dh, o, out=tmp)
                tmp *= sl_sc
                dc += tmp
            np.multiply(dh, sc, out=d_o)
            d_o *= sl_o
            if peep is not None:
                np.multiply(d_o, peep_o, out=tmp)
                dc += tmp
            np.multiply(dc, g, out=d_i)
            np.multiply(dc, c_t, out=d_f)
            np.multiply(dc, i, out=d_g)
            da_3 *= sl_3
            if t == 0:
                break  # the start state is a constant
            dc *= f
            if peep is not None:
                np.multiply(d_i, peep_i, out=tmp)
                dc += tmp
                np.multiply(d_f, peep_f, out=tmp)
                dc += tmp
            np.matmul(wh_t, da_t, out=self.dh_rec)

        self.stack_da()
        self._weight_gradients(grad, self.da2)
        if peep is not None:  # gates i and f peek at c[t], gate o (block 3) at c[t+1]
            u, c = self.p.units, self.c
            peep_grads = grad["peep"].reshape(3, u)
            for k, cells, out in zip((0, 1, 3), (c[:-1], c[:-1], c[1:]), peep_grads):
                np.multiply(self.da[:, k * u:(k + 1) * u], cells, out=self.peep_prod)
                np.add.reduce(self.peep_prod, axis=(0, 2), out=out)


class _GruTape(_LayerTape):
    """A GRU layer's tape: s holds z, r and the candidate, hw the
    recurrent projection W_h @ h_prev (T, 3U, B) and dah the gradient
    reaching its pre-activations; omz holds 1 - z and jump the candidate
    minus h_prev (T, U, B), both used again by backward()."""

    ROWS = 3

    def __init__(self, p: GruLayerParams, acts: Activations, n_steps: int, x2,
                 dx=None, stacked: bool = False, h0=None):
        super().__init__(p, n_steps, x2, dx, stacked, h0)
        self.gate_fn, gate_d = _resolve(acts.gate)
        u, n = p.units, self.h.shape[2]
        self.hw, self.dah = np.empty_like(self.s), np.empty_like(self.s)
        self.dah2, self.stack_dah = _time_stacked(self.dah)
        self.omz, self.jump = np.empty_like(self.h[1:]), np.empty_like(self.h[1:])
        self.pre = np.empty((3 * u, n))
        self.steps = [
            (h_t, h_next, hw_t, s_t[:2 * u], hw_t[:2 * u], a_t[:2 * u], hw_t[2 * u:], a_t[2 * u:],
             _blocks(s_t, u), omz_t, dh_t, da_t[:2 * u], _blocks(da_t, u), sl_t[:2 * u],
             sl_t[2 * u:], dah_t, dah_t[:2 * u], dah_t[2 * u:], jump_t)
            for a_t, h_t, h_next, s_t, dh_t, da_t, sl_t, hw_t, dah_t, omz_t, jump_t
            in zip(*self.by_step, self.hw, self.dah, self.omz, self.jump)]
        self.deriv_views = [(gate_d, self.s[:, :2 * u], self.slopes[:, :2 * u]),
                            (_dtanh_from_y, self.s[:, 2 * u:], self.slopes[:, 2 * u:])]

    def forward(self) -> None:
        """Run the layer over x2 from its start state."""
        self._project(self.p.b)
        u, wh, gate_fn, tmp = self.p.units, self.p.wh, self.gate_fn, self.tmp
        pre_zr, pre_c = self.pre[:2 * u], self.pre[2 * u:]
        for h_t, h_next, hw_t, s_zr, hw_zr, a_zr, hw_c, a_c, (z, r, cand), omz, *_ in self.steps:
            np.matmul(wh, h_t, out=hw_t)
            np.add(a_zr, hw_zr, out=pre_zr)
            gate_fn(pre_zr, out=s_zr)
            np.multiply(r, hw_c, out=pre_c)
            np.add(a_c, pre_c, out=pre_c)
            np.tanh(pre_c, out=cand)
            np.subtract(1.0, z, out=omz)
            np.multiply(omz, h_t, out=h_next)
            np.multiply(z, cand, out=tmp)
            h_next += tmp
        self.stack_hs()

    def backward(self, grad: dict) -> None:
        """BPTT from dh_out; see _LstmTape.backward."""
        for deriv, y, out in self.deriv_views:
            deriv(y, out=out)
        np.subtract(self.s[:, 2 * self.p.units:], self.h[:-1], out=self.jump)
        tmp, wh_t, last = self.tmp, self.p.wh.T, self.last
        for t in range(last, -1, -1):
            (_, _, _, _, _, _, hw_c, _, (z, r, _), omz, dh_t, da_zr, (d_z, d_r, d_c),
             sl_zr, sl_c, dah_t, dah_zr, dah_c, jump) = self.steps[t]
            dh = dh_t if t == last else np.add(dh_t, self.dh_rec, out=self.dh)
            np.multiply(dh, z, out=d_c)
            d_c *= sl_c
            np.multiply(dh, jump, out=d_z)
            np.multiply(d_c, hw_c, out=d_r)
            da_zr *= sl_zr
            np.copyto(dah_zr, da_zr)
            np.multiply(d_c, r, out=dah_c)
            if t > 0:
                np.multiply(dh, omz, out=tmp)
                np.matmul(wh_t, dah_t, out=self.dh_rec)
                np.add(tmp, self.dh_rec, out=self.dh_rec)

        self.stack_da()
        self.stack_dah()
        self._weight_gradients(grad, self.dah2)


_LAYER_TAPES = {"lstm": _LstmTape, "gru": _GruTape}


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
    layer = _LstmTape(params, activations, 1, x_t[:, None],
                      h0=state.h[:, None], c0=state.c[:, None])
    with np.errstate(over="ignore"):
        layer.forward()
    h, c = layer.h[1, :, 0], layer.c[1, :, 0]
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
    layer = _GruTape(params, activations, 1, x_t[:, None], h0=h_prev[:, None])
    with np.errstate(over="ignore"):
        layer.forward()
    return layer.h[1, :, 0]


# ---------------------------------------------------------------------------
# forward

class Tape:
    """What forward() records for backward() on one network and batch
    size: every layer's tape, chained so each layer reads the one below,
    the head's values, and a gradient vector laid out like `net.flat`.

    Build it once per batch size and pass it to every forward(); each
    pass overwrites it, and backward() returns Gradients over its one
    gradient vector, which the next backward() overwrites too.
    """

    def __init__(self, net: RecurrentNetwork, batch_size: int):
        self.net, self.batch_size = net, int(batch_size)
        n_steps, n = net.window, self.batch_size
        self.x0 = np.empty((1, n_steps * n))  # one univariate step per B columns
        self.x0_steps = self.x0.reshape(n_steps, n)
        self.grads = Gradients(np.empty_like(net.flat), net._layout)
        self.layers, self.grad_blocks = [], []
        x2, dx = self.x0, None
        for k, layer in enumerate(net.layers):
            tape = _LAYER_TAPES[net.cell_kind](layer, net.activations, n_steps, x2, dx,
                                               stacked=k + 1 < len(net.layers))
            self.layers.append(tape)
            self.grad_blocks.append(layer.views(self.grads.flat[net._layer_slices[k]]))
            x2, dx = tape.hs, tape.dh_out  # what this layer reads is what the one below wrote
        self.h_last = self.layers[-1].h[-1]  # (U, B)
        self.dh_last = self.layers[-1].dh_out[:, (n_steps - 1) * n:]
        self.head_w_grad = self.grads["head.w"]
        self.pre_head = np.empty(n)
        self.preds = None

    def check(self, net: RecurrentNetwork) -> None:
        """Raise TapeMismatch unless the tape was built for `net`."""
        if net is not self.net:
            raise TapeMismatch(f"tape was built for another network "
                               f"({self.net.cell_kind}, {len(self.net.layers)} layers)")


def forward(net: RecurrentNetwork, inputs: np.ndarray,
            tape: Tape | None = None) -> tuple[np.ndarray, Tape]:
    """Run a window (shape (4,)) or a batch of windows (shape (B, 4))
    through the network. Returns (predictions, tape); predictions match
    the input's batch shape (scalar ndarray for a single window).

    The pass is recorded on `tape`, which must have been built for this
    network and batch size, or on a fresh one when tape is None.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    single = inputs.ndim == 1
    batch = inputs[None, :] if single else inputs
    if batch.ndim != 2 or batch.shape[1] != net.window:
        raise ShapeMismatch(f"input shape {inputs.shape}, expected (*, {net.window})")
    if tape is None:
        tape = Tape(net, batch.shape[0])
    tape.check(net)
    if batch.shape[0] != tape.batch_size:
        raise TapeMismatch(f"batch of {batch.shape[0]}, tape built for {tape.batch_size}")

    with np.errstate(over="ignore"):
        np.copyto(tape.x0_steps, batch.T)
        for layer in tape.layers:
            layer.forward()
        np.matmul(net.head_w, tape.h_last, out=tape.pre_head)
        tape.pre_head += net.head_b[0]
        tape.preds = hard_sigmoid(tape.pre_head)
    return (tape.preds[0] if single else tape.preds), tape


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

def backward(net: RecurrentNetwork, targets: np.ndarray, tape: Tape) -> Gradients:
    """Exact gradients of the batch-mean squared error with respect to
    every parameter, keyed like RecurrentNetwork.parameters() and stored
    in the tape's flat vector, laid out like the network's.

    The tape must hold a forward() of this network; inputs are read back
    from it.
    """
    targets = np.asarray(targets, dtype=np.float64)
    tape.check(net)
    n = tape.batch_size
    if targets.shape != (n,):
        raise TapeMismatch(f"targets shape {targets.shape}, tape batch {n}")

    grads = tape.grads
    with np.errstate(over="ignore"):
        pre_head = tape.pre_head
        dpred = 2.0 * (tape.preds - targets) / n
        # hard sigmoid passes slope 0.2 strictly inside the clamp
        dpre = dpred * np.where((pre_head > -2.5) & (pre_head < 2.5), 0.2, 0.0)
        np.matmul(tape.h_last, dpre, out=tape.head_w_grad)
        grads.flat[-1] = dpre.sum()
        np.multiply(net.head_w[:, None], dpre[None, :], out=tape.dh_last)
        for layer, blocks in zip(reversed(tape.layers), reversed(tape.grad_blocks)):
            layer.backward(blocks)
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


def _adam_scratch(size: int) -> tuple:
    """The two scratch blocks of an ADAM step on `size` parameters, as
    two arrays: rows of one array would leave the second unaligned."""
    return np.empty(min(size, ADAM_BLOCK)), np.empty(min(size, ADAM_BLOCK))


def _adam_in_place(param, grad, m, v, t: int, cfg: AdamConfig, scratch: tuple) -> None:
    """One bias-corrected ADAM step written into param, m and v, flat
    arrays of one size, block by block, with _adam_scratch() blocks."""
    a, b = scratch
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
    _adam_in_place(param.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1), t, cfg,
                   _adam_scratch(param.size))
    return param, m, v


class AdamOptimizer:
    """First and second moments of a whole network, flat like its
    parameters, so a step is one in-place update of `net.flat`."""

    def __init__(self, net: RecurrentNetwork, cfg: AdamConfig = AdamConfig()):
        self.cfg = cfg
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self.scratch = _adam_scratch(net.flat.size)

    def step(self, net: RecurrentNetwork, grads: Gradients) -> None:
        """Apply the gradients that backward() returned for `net`."""
        if grads.flat.shape != net.flat.shape:
            raise ShapeMismatch(f"gradient size {grads.flat.size}, network size {net.flat.size}")
        self.t += 1
        _adam_in_place(net.flat, grads.flat, self.m, self.v, self.t, self.cfg, self.scratch)


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
    jsonfile.save(path, payload)


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
