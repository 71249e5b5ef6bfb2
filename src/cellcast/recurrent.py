"""From-scratch LSTM and GRU networks in plain numpy.

A network is a fixed first recurrent layer (input dim 1, one unit per
window position), a stack of wider recurrent layers, and a one-neuron
dense head with a hard-sigmoid activation. Every network reads the
protocol's window of prep.WINDOW (4) bins, consumed as a 4-step
univariate sequence; every recurrent layer hands its full hidden
sequence upward and only the last timestep reaches the head.

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
the time-stacked activations. ADAM updates the flat vector in place, at
fixed constants (ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPS).

The cell equations are fixed. The LSTM squashes its gates, its cell
input and its cell output with the logistic sigmoid, and its i, f and o
gates read the cell state through peephole connections. The GRU has
sigmoid gates, a tanh candidate and a bias per gate. A model file states
these equations and the window in its header, and a file that states
others is refused.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import jsonfile
from .errors import Empty, LengthMismatch, MalformedModel, ShapeMismatch, TapeMismatch
from .prep import WINDOW, MinMaxScaler

# The version written into model files, and the only one read.
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


# ---------------------------------------------------------------------------
# layer parameters

# Per-gate key -> (block, gate index), in the order of each layer's flat
# vector. The keys name a layer's arrays in parameters() and Gradients
# paths; gate k of a block is its rows k*U:(k+1)*U.
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
    peephole vectors. All blocks are views into one flat vector, `flat`,
    in that order.
    """

    KIND: str  # the cell kind, which picks the layer's row of GATES

    def __init__(self, units: int, input_dim: int):
        self.units, self.input_dim = int(units), int(input_dim)
        self._shapes = self._block_shapes(self.units, self.input_dim)
        self._bind(np.zeros(self.param_count(self.units, self.input_dim)))

    @classmethod
    def _block_shapes(cls, units: int, input_dim: int) -> dict:
        """block -> its shape in a layer of these sizes, in flat order."""
        blocks = [block for block, _ in GATES[cls.KIND].values()]  # one entry per gate
        cols = {"wx": (input_dim,), "wh": (units,)}
        return {block: (units * blocks.count(block), *cols.get(block, ()))
                for block in dict.fromkeys(blocks)}

    @classmethod
    def param_count(cls, units: int, input_dim: int) -> int:
        """The parameter count of a layer of these sizes, found without
        allocating it."""
        return sum(math.prod(shape) for shape in cls._block_shapes(units, input_dim).values())

    def views(self, flat: np.ndarray) -> dict:
        """block -> view into `flat` laid out like this layer; gives
        gradient blocks as well as weights."""
        out, offset = {}, 0
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
        """(per-gate key, writable view into its block) for every gate, in
        flat order."""
        u = self.units
        return [(key, getattr(self, block)[k * u:(k + 1) * u])
                for key, (block, k) in GATES[self.KIND].items()]


class LstmLayerParams(_StackedLayer):
    """One LSTM layer, gates in i, f, c, o order."""

    KIND = "lstm"


class GruLayerParams(_StackedLayer):
    """One GRU layer, gates in z, r, candidate order."""

    KIND = "gru"


_LAYER_PARAMS = {"lstm": LstmLayerParams, "gru": GruLayerParams}
# The cell kinds as the library, its grids and its model files spell them.
CELL_KINDS = tuple(_LAYER_PARAMS)
KIND_CHOICES = " or ".join(map(repr, CELL_KINDS))  # "'lstm' or 'gru'", for messages


@dataclass
class LstmState:
    """Recurrent carry of one LSTM layer; zeros at sequence start."""

    c: np.ndarray
    h: np.ndarray


def _check_chain(dims: list[tuple[int, int]]) -> None:
    """Raise ShapeMismatch unless the (input_dim, units) of each layer
    reads the units of the layer below it, and the first one value."""
    if not dims:
        raise ShapeMismatch("layers: a network needs at least one layer")
    for i, (input_dim, _) in enumerate(dims):
        expected = 1 if i == 0 else dims[i - 1][1]
        if input_dim != expected:
            raise ShapeMismatch(f"layers[{i}].input_dim: {input_dim}, expected {expected}")


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
    layers: list  # LstmLayerParams or GruLayerParams
    head_w: np.ndarray  # (last layer units,)
    head_b: np.ndarray  # (1,)

    def __post_init__(self):
        _check_chain([(layer.input_dim, layer.units) for layer in self.layers])
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


def build_network(cell_kind: str, hidden_layers: int, units: int, seed) -> RecurrentNetwork:
    """Seeded network: fixed first recurrent layer (input dim 1, WINDOW
    units) plus `hidden_layers` recurrent layers of `units` each, then the
    dense head. Matrices are uniform within the fan-sum limit, biases 0
    except the LSTM forget bias at 1, peepholes 0.
    """
    if cell_kind not in CELL_KINDS:
        raise ValueError(f"cell_kind must be {KIND_CHOICES}, got {cell_kind!r}")
    if hidden_layers < 0:
        raise ValueError("hidden_layers must be >= 0")
    rng = np.random.default_rng(seed)
    dims = [(1, WINDOW)] + [(WINDOW if i == 0 else units, units)
                            for i in range(hidden_layers)]
    layers = []
    for input_dim, u in dims:
        layer = _LAYER_PARAMS[cell_kind](u, input_dim)
        if cell_kind == "lstm":
            layer.b[u:2 * u] = 1.0  # forget-gate warm start
        for w in (layer.wx, layer.wh):  # every input gate, then every recurrent one
            for k in range(0, len(w), u):
                w[k:k + u] = _glorot(rng, u, w.shape[1])
        layers.append(layer)
    last_units = dims[-1][1]
    head_w = _glorot(rng, 1, last_units)[0]
    head_b = np.zeros(1)
    return RecurrentNetwork(cell_kind=cell_kind, layers=layers, head_w=head_w, head_b=head_b)


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

    def _project(self) -> None:
        np.dot(self.p.wx, self.x2, out=self.a)
        self.a += self.p.b[:, None]

    def _weight_gradients(self, grad: dict, dah2) -> None:
        """The input and recurrent weight gradients, the bias gradient and,
        with dx, the input gradient, from da and dah2 (the time-stacked
        gradients reaching W_h)."""
        self.stack_hp()
        np.dot(self.da2, self.x2.T, out=grad["wx"])
        np.dot(dah2, self.hp.T, out=grad["wh"])
        self.da2.sum(axis=1, out=grad["b"])
        if self.dx is not None:
            np.dot(self.p.wx.T, self.da2, out=self.dx)


class _LstmTape(_LayerTape):
    """An LSTM layer's tape: s holds i, f, the candidate, o and
    sigmoid(c), c (T+1, U, B) the cell state from c0, and peep (3, U, B)
    the i, f and o peepholes copied across the batch by forward(), which
    backward() reads too."""

    ROWS = 5

    def __init__(self, p: LstmLayerParams, n_steps: int, x2,
                 dx=None, stacked: bool = False, h0=None, c0=None):
        super().__init__(p, n_steps, x2, dx, stacked, h0)
        u, n = p.units, self.h.shape[2]
        self.c = np.zeros_like(self.h)
        if c0 is not None:
            self.c[0] = c0
        self.pre = np.empty((5 * u, n))  # pre-activations of i, f, candidate, o, then c
        self.peep = np.empty((3, u, n))  # numpy runs a (U, 1) broadcast row by row
        self.dc, self.peep_tmp = np.empty((u, n)), np.empty((2, u, n))
        self.peep_prod = np.empty((n_steps, u, n))
        self.steps = [
            (a_t, h_t, h_next, c_t, c_next, s_t[:3 * u], s_t[3 * u:],
             _blocks(s_t, u), dh_t, da_t, _blocks(da_t, u), _blocks(sl_t, u)[3:],
             da_t[:3 * u], sl_t[:3 * u])
            for a_t, h_t, h_next, s_t, dh_t, da_t, sl_t, c_t, c_next
            in zip(*self.by_step, self.c[:-1], self.c[1:])]

    def forward(self) -> None:
        """Run the layer over x2 from its start state."""
        self._project()
        np.copyto(self.peep, self.p.peep.reshape(3, -1, 1))
        u, wh, tmp, peep_tmp = self.p.units, self.p.wh, self.tmp, self.peep_tmp
        pre4, pre_if, pre_o = (self.pre[:4 * u], self.pre[:2 * u].reshape(peep_tmp.shape),
                               self.pre[3 * u:4 * u])
        pre_ifg, pre_oc, pre_c = self.pre[:3 * u], self.pre[3 * u:], self.pre[4 * u:]
        peep_if, peep_o = self.peep[:2], self.peep[2]
        for a_t, h_t, h_next, c_t, c_next, s_ifg, s_oc, (i, f, g, o, sc), *_ in self.steps:
            np.dot(wh, h_t, out=pre4)
            pre4 += a_t
            np.multiply(c_t, peep_if, out=peep_tmp)
            pre_if += peep_tmp
            _sigmoid(pre_ifg, out=s_ifg)
            np.multiply(f, c_t, out=c_next)
            np.multiply(i, g, out=tmp)
            c_next += tmp
            np.multiply(c_next, peep_o, out=tmp)
            pre_o += tmp  # the output gate peeks at the NEW cell state
            np.copyto(pre_c, c_next)
            _sigmoid(pre_oc, out=s_oc)
            np.multiply(o, sc, out=h_next)
        self.stack_hs()

    def backward(self, grad: dict) -> None:
        """BPTT from dh_out: writes the weight gradients into the `grad`
        blocks and, with dx, the input gradient."""
        _dsigmoid_from_y(self.s, out=self.slopes)
        tmp, dc, wh_t, last = self.tmp, self.dc, self.p.wh.T, self.last
        peep_i, peep_f, peep_o = self.peep
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
            np.multiply(d_o, peep_o, out=tmp)
            dc += tmp
            np.multiply(dc, g, out=d_i)
            np.multiply(dc, c_t, out=d_f)
            np.multiply(dc, i, out=d_g)
            da_3 *= sl_3
            if t == 0:
                break  # the start state is a constant
            dc *= f
            np.multiply(d_i, peep_i, out=tmp)
            dc += tmp
            np.multiply(d_f, peep_f, out=tmp)
            dc += tmp
            np.dot(wh_t, da_t, out=self.dh_rec)

        self.stack_da()
        self._weight_gradients(grad, self.da2)
        # gates i and f peek at c[t], gate o (block 3) at c[t+1]
        u, c = self.p.units, self.c
        for k, cells, out in zip((0, 1, 3), (c[:-1], c[:-1], c[1:]), grad["peep"].reshape(3, u)):
            np.multiply(self.da[:, k * u:(k + 1) * u], cells, out=self.peep_prod)
            np.add.reduce(self.peep_prod, axis=(0, 2), out=out)


class _GruTape(_LayerTape):
    """A GRU layer's tape: s holds z, r and the candidate, hw the
    recurrent projection W_h @ h_prev (T, 3U, B) and dah the gradient
    reaching its pre-activations; omz holds 1 - z and jump the candidate
    minus h_prev (T, U, B), both used again by backward()."""

    ROWS = 3

    def __init__(self, p: GruLayerParams, n_steps: int, x2,
                 dx=None, stacked: bool = False, h0=None):
        super().__init__(p, n_steps, x2, dx, stacked, h0)
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

    def forward(self) -> None:
        """Run the layer over x2 from its start state."""
        self._project()
        u, wh, tmp = self.p.units, self.p.wh, self.tmp
        pre_zr, pre_c = self.pre[:2 * u], self.pre[2 * u:]
        for h_t, h_next, hw_t, s_zr, hw_zr, a_zr, hw_c, a_c, (z, r, cand), omz, *_ in self.steps:
            np.dot(wh, h_t, out=hw_t)
            np.add(a_zr, hw_zr, out=pre_zr)
            _sigmoid(pre_zr, out=s_zr)
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
        u = self.p.units
        _dsigmoid_from_y(self.s[:, :2 * u], out=self.slopes[:, :2 * u])
        _dtanh_from_y(self.s[:, 2 * u:], out=self.slopes[:, 2 * u:])
        np.subtract(self.s[:, 2 * u:], self.h[:-1], out=self.jump)
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
                np.dot(wh_t, dah_t, out=self.dh_rec)
                np.add(tmp, self.dh_rec, out=self.dh_rec)

        self.stack_da()
        self.stack_dah()
        self._weight_gradients(grad, self.dah2)


_LAYER_TAPES = {"lstm": _LstmTape, "gru": _GruTape}


# ---------------------------------------------------------------------------
# cell steps

def lstm_step(params: LstmLayerParams, x_t: np.ndarray,
              state: LstmState) -> tuple[np.ndarray, LstmState]:
    """One LSTM timestep for a single d-dimensional input vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatch(f"x_t shape {x_t.shape}, expected ({params.input_dim},)")
    if state.h.shape != (params.units,) or state.c.shape != (params.units,):
        raise ShapeMismatch(f"state shapes {state.h.shape}/{state.c.shape}, "
                            f"expected ({params.units},)")
    layer = _LstmTape(params, 1, x_t[:, None], h0=state.h[:, None], c0=state.c[:, None])
    with np.errstate(over="ignore"):
        layer.forward()
    h, c = layer.h[1, :, 0], layer.c[1, :, 0]
    return h, LstmState(c=c, h=h)


def gru_step(params: GruLayerParams, x_t: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """One GRU timestep for a single d-dimensional input vector."""
    x_t = np.asarray(x_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ShapeMismatch(f"x_t shape {x_t.shape}, expected ({params.input_dim},)")
    if h_prev.shape != (params.units,):
        raise ShapeMismatch(f"h_prev shape {h_prev.shape}, expected ({params.units},)")
    layer = _GruTape(params, 1, x_t[:, None], h0=h_prev[:, None])
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
        n_steps, n = WINDOW, self.batch_size
        self.x0 = np.empty((1, n_steps * n))  # one univariate step per B columns
        self.x0_steps = self.x0.reshape(n_steps, n)
        self.grads = Gradients(np.empty_like(net.flat), net._layout)
        self.layers, self.grad_blocks = [], []
        x2, dx = self.x0, None
        for k, layer in enumerate(net.layers):
            tape = _LAYER_TAPES[net.cell_kind](layer, n_steps, x2, dx,
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
    """Run a window (shape (WINDOW,)) or a batch of windows (shape (B, WINDOW))
    through the network. Returns (predictions, tape); predictions match
    the input's batch shape (scalar ndarray for a single window).

    The pass is recorded on `tape`, which must have been built for this
    network and batch size, or on a fresh one when tape is None.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    single = inputs.ndim == 1
    batch = inputs[None, :] if single else inputs
    if batch.ndim != 2 or batch.shape[1] != WINDOW:
        raise ShapeMismatch(f"input shape {inputs.shape}, expected (*, {WINDOW})")
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

# The usual settings of Kingma and Ba, the only ones training uses.
ADAM_ALPHA, ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.001, 0.9, 0.999, 1e-8

# Elements per ADAM block: the six arrays of a block (param, grad, m, v
# and two scratch arrays, 1.5 MB) stay in a core's L2 cache through the
# dozen passes of the update, which streams each array from memory once.
ADAM_BLOCK = 32_768


def _adam_scratch(size: int) -> tuple:
    """The two scratch blocks of an ADAM step on `size` parameters, as
    two arrays: rows of one array would leave the second unaligned."""
    return np.empty(min(size, ADAM_BLOCK)), np.empty(min(size, ADAM_BLOCK))


def _adam_in_place(param, grad, m, v, t: int, scratch: tuple) -> None:
    """One bias-corrected ADAM step written into param, m and v, flat
    arrays of one size, block by block, with _adam_scratch() blocks."""
    a, b = scratch
    for start in range(0, param.size, ADAM_BLOCK):
        seg = slice(start, start + ADAM_BLOCK)
        p, g, mb, vb = param[seg], grad[seg], m[seg], v[seg]
        ab, bb = a[:p.size], b[:p.size]
        mb *= ADAM_BETA1
        mb += np.multiply(1.0 - ADAM_BETA1, g, out=ab)
        np.multiply(1.0 - ADAM_BETA2, g, out=ab)
        ab *= g
        vb *= ADAM_BETA2
        vb += ab
        np.divide(mb, 1.0 - ADAM_BETA1 ** t, out=ab)  # m_hat
        np.divide(vb, 1.0 - ADAM_BETA2 ** t, out=bb)  # v_hat
        np.sqrt(bb, out=bb)
        bb += ADAM_EPS
        ab *= ADAM_ALPHA
        ab /= bb
        p -= ab


def adam_update(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int):
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
    _adam_in_place(param.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1), t,
                   _adam_scratch(param.size))
    return param, m, v


class AdamOptimizer:
    """First and second moments of a whole network, flat like its
    parameters, so a step is one in-place update of `net.flat`."""

    def __init__(self, net: RecurrentNetwork):
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)
        self.scratch = _adam_scratch(net.flat.size)

    def step(self, net: RecurrentNetwork, grads: Gradients) -> None:
        """Apply the gradients that backward() returned for `net`."""
        if grads.flat.shape != net.flat.shape:
            raise ShapeMismatch(f"gradient size {grads.flat.size}, network size {net.flat.size}")
        self.t += 1
        _adam_in_place(net.flat, grads.flat, self.m, self.v, self.t, self.scratch)


# ---------------------------------------------------------------------------
# persistence

# The fixed cell equations as a model file states them: the header's
# activations and, in each layer entry, the LSTM's peephole or the GRU's
# bias flag. Files are written with these values; a file
# with any other is refused, naming the key. The GRU candidate is tanh
# whatever the header says.
CELL_EQUATIONS = {
    "activations": {"gate": "sigmoid", "cell_input": "sigmoid", "cell_output": "sigmoid"},
    "lstm": {"peepholes": True},
    "gru": {"biases": True},
}


def save_model_json(net: RecurrentNetwork, scaler: MinMaxScaler, path: str) -> None:
    """Write the network as one line of JSON: a header that describes the
    layers, then `net.flat` as base64 of its little-endian float64 bytes."""
    payload = {
        "format": MODEL_FORMAT,
        "cell_kind": net.cell_kind,
        "window": WINDOW,
        "activations": CELL_EQUATIONS["activations"],
        "scaler": {"lo": scaler.lo, "hi": scaler.hi},
        "layers": [{"input_dim": layer.input_dim, "units": layer.units,
                    **CELL_EQUATIONS[net.cell_kind]} for layer in net.layers],
        "parameters": jsonfile.to_blob(net.flat),
    }
    jsonfile.save(path, payload)


# The top-level keys of a model file, all required.
_HEADER = {"format", "cell_kind", "window", "activations", "scaler", "layers", "parameters"}


def _layer_dims(layer_cls, entry, where: str) -> tuple[int, int]:
    """(input_dim, units) of one entry of a file's `layers` list; the
    layer's weights are in the file's `parameters`."""
    input_dim = jsonfile.positive_int(entry, "input_dim", where)
    units = jsonfile.positive_int(entry, "units", where)
    flags = CELL_EQUATIONS[layer_cls.KIND]
    unknown = sorted(set(entry) - set(flags) - {"input_dim", "units"})
    if unknown:
        raise MalformedModel(f"{where}{unknown[0]}: unknown key for a {layer_cls.KIND} layer")
    jsonfile.expect(entry, flags, where)
    return input_dim, units


def _blob(text, size: int) -> np.ndarray:
    """The base64 `parameters` of a model file as `size` float64 values."""
    values = jsonfile.from_blob(text, "parameters")
    if values.size != size:
        raise MalformedModel(f"parameters: {values.size} values, expected {size}")
    return values


def _model_from_payload(payload) -> tuple[RecurrentNetwork, MinMaxScaler]:
    # The version first, so that an older file is named by it rather than
    # by the first key that it holds or lacks.
    jsonfile.expect(payload, {"format": MODEL_FORMAT})
    mismatch = sorted(_HEADER ^ set(payload))
    if mismatch:
        name = mismatch[0]
        raise MalformedModel(f"{name}: {'missing' if name in _HEADER else 'unknown key'}")
    kind = payload["cell_kind"]
    if kind not in CELL_KINDS:
        raise MalformedModel(f"cell_kind: {kind!r}, expected {KIND_CHOICES}")
    layer_cls = _LAYER_PARAMS[kind]
    jsonfile.expect(payload["activations"], CELL_EQUATIONS["activations"], "activations.")
    jsonfile.expect(payload, {"window": WINDOW})

    entries = payload["layers"]
    if not isinstance(entries, list) or not entries:
        raise MalformedModel("layers: expected a non-empty list")
    dims = [_layer_dims(layer_cls, entry, f"layers[{i}].") for i, entry in enumerate(entries)]
    # build_network's first layer has one unit per window position.
    if dims[0][1] != WINDOW:
        raise MalformedModel(f"layers[0].units: {dims[0][1]}, expected {WINDOW}")
    try:
        _check_chain(dims)
    except ShapeMismatch as exc:
        raise MalformedModel(str(exc)) from None
    # The blob must hold what the header states before any layer is
    # built, so that a header stating huge layers allocates nothing.
    last = dims[-1][1]
    values = _blob(payload["parameters"],
                   sum(layer_cls.param_count(units, input_dim) for input_dim, units in dims)
                   + last + 1)
    net = RecurrentNetwork(cell_kind=kind, layers=[layer_cls(units, input_dim)
                                                   for input_dim, units in dims],
                           head_w=np.zeros(last), head_b=np.zeros(1))
    net.flat[...] = values
    if not np.isfinite(net.flat).all():
        path = next(path for path, arr in net.parameters() if not np.isfinite(arr).all())
        raise MalformedModel(f"parameters: {path} holds a non-finite value")
    lo, hi = (jsonfile.number(payload["scaler"], name, "scaler.") for name in ("lo", "hi"))
    if not 0.0 < hi - lo < math.inf:
        raise MalformedModel(f"scaler.hi: {hi!r}, expected a finite amount above scaler.lo = {lo!r}")
    return net, MinMaxScaler(lo=lo, hi=hi)


def load_model_json(path: str) -> tuple[RecurrentNetwork, MinMaxScaler]:
    """Read a model file of format MODEL_FORMAT, as save_model_json writes
    it. A file of any other format or window, one whose first layer is
    not WINDOW units wide, one that does not describe a network, or one
    without a scaler, raises MalformedModel naming the file and the key,
    e.g. `m.json: format: 2, expected 3`, `m.json: layers[0].units: 3,
    expected 4`, `m.json: parameters: 11308 values, expected 11309` or
    `m.json: scaler: not a JSON object`."""
    return jsonfile.load(path, _model_from_payload, MalformedModel)
