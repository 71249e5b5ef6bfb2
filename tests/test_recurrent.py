"""Recurrent cells: hand-derived step values, BPTT gradient checks,
reusable tapes, ADAM, the flat parameter layout and model files."""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellcast import (
    AdamOptimizer,
    GruLayerParams,
    LstmLayerParams,
    LstmState,
    MinMaxScaler,
    RecurrentNetwork,
    Tape,
    adam_update,
    backward,
    build_network,
    forward,
    gru_step,
    hard_sigmoid,
    load_model_json,
    lstm_step,
    mse_loss,
    save_model_json,
    sigmoid,
    tanh,
)
from cellcast.errors import Empty, LengthMismatch, MalformedModel, ShapeMismatch, TapeMismatch
from cellcast.prep import make_windows
from cellcast.training import BATCH_SIZE, ClusterDataset, TrainConfig, _fit

# Seeds whose random nets give finite-difference checks comfortably away
# from the central-difference noise floor (entries ~1e-7 against an
# absolute floor ~1e-12 are ill-conditioned at eps=1e-5).
GRADCHECK_SEEDS = (2, 6, 15, 26, 28)

# The scaler of the model files these tests write; every model file has one.
SCALER = MinMaxScaler(lo=0.0, hi=1.0)


def gate(layer, key):
    """The writable view of one gate array of a layer, by its key."""
    return dict(layer.gates())[key]


def zeroed_network(cell_kind, hidden_layers=1, units=8):
    net = build_network(cell_kind, hidden_layers, units, seed=0)
    for _, arr in net.parameters():
        arr[...] = 0.0
    return net


def edited(doc, edit):
    edit(doc)
    return doc


def drop_last_parameter(doc):
    blob = base64.b64decode(doc["parameters"])
    doc["parameters"] = base64.b64encode(blob[:-8]).decode("ascii")


def poison_parameter(index):
    """An edit that makes parameter `index` of the blob infinite."""
    def poison(doc):
        values = np.frombuffer(base64.b64decode(doc["parameters"]), dtype="<f8").copy()
        values[index] = np.inf
        doc["parameters"] = base64.b64encode(values.tobytes()).decode("ascii")
    return poison


def on_format_3(edit, kind="lstm"):
    """A corrupt model: a freshly saved format-3 network (layers 1->4->3;
    217 parameters for the LSTM) after edit."""
    def saved(tmp_path):
        save_model_json(build_network(kind, 1, 3, seed=11), SCALER, str(tmp_path / "saved.json"))
        return json.loads((tmp_path / "saved.json").read_text())
    return lambda tmp_path: edited(saved(tmp_path), edit)


class TestActivations:
    def test_fixed_points(self):
        assert sigmoid(np.array(0.0)) == 0.5
        assert hard_sigmoid(np.array(0.0)) == 0.5
        assert tanh(np.array(0.0)) == 0.0

    def test_hard_sigmoid_clamps(self):
        assert hard_sigmoid(np.array(3.0)) == 1.0
        assert hard_sigmoid(np.array(-3.0)) == 0.0
        assert hard_sigmoid(np.array(1.0)) == 0.7

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert out[0] == 0.0 and out[1] == 1.0
        assert np.isfinite(out).all()


class TestLstmStep:
    def test_zero_parameters(self):
        """All gates sit at 0.5, so h = 0.5 * sigmoid(0.25) per element."""
        params = LstmLayerParams(3, 2)
        state = LstmState(c=np.zeros(3), h=np.zeros(3))
        h, new = lstm_step(params, np.array([5.0, -2.0]), state)
        expected = 0.5 * sigmoid(np.array(0.25))
        np.testing.assert_allclose(h, expected, atol=1e-12)
        np.testing.assert_allclose(new.c, 0.25, atol=1e-12)

    def test_saturated_forget_gate_carries_memory(self):
        params = LstmLayerParams(1, 1)
        gate(params, "b_f")[:] = 50.0
        state = LstmState(c=np.array([1.0]), h=np.zeros(1))
        _, new = lstm_step(params, np.array([0.0]), state)
        assert abs(new.c[0] - 1.25) < 1e-6  # c_prev + 0.5*sigmoid(0)

    def test_saturated_input_gate(self):
        params = LstmLayerParams(1, 1)
        gate(params, "w_xi")[:] = 50.0
        state = LstmState(c=np.zeros(1), h=np.zeros(1))
        h, new = lstm_step(params, np.array([1.0]), state)
        assert abs(new.c[0] - 0.5) < 1e-6
        assert abs(h[0] - 0.5 * sigmoid(np.array(0.5))) < 1e-6  # ~0.31123

    def test_memory_drift_with_gates_forced(self):
        """f ~ 1 and i ~ 0 keep the cell state put across steps."""
        params = LstmLayerParams(4, 1)
        gate(params, "b_f")[:] = 50.0
        gate(params, "b_i")[:] = -50.0
        state = LstmState(c=np.array([0.3, -0.7, 1.2, 0.0]), h=np.zeros(4))
        c0 = state.c.copy()
        rng = np.random.default_rng(0)
        for _ in range(4):
            _, state = lstm_step(params, rng.normal(size=1), state)
        assert np.abs(state.c - c0).max() < 1e-6

    def test_shape_mismatch(self):
        params = LstmLayerParams(3, 2)
        with pytest.raises(ShapeMismatch):
            lstm_step(params, np.zeros(5), LstmState(c=np.zeros(3), h=np.zeros(3)))


class TestGruStep:
    def test_zero_parameters_zero_state(self):
        params = GruLayerParams(3, 2)
        h = gru_step(params, np.array([4.0, 4.0]), np.zeros(3))
        np.testing.assert_array_equal(h, 0.0)

    def test_zero_parameters_interpolate_toward_zero(self):
        params = GruLayerParams(3, 1)
        v = np.array([0.8, -0.4, 0.1])
        h = gru_step(params, np.zeros(1), v)
        np.testing.assert_allclose(h, 0.5 * v, atol=1e-12)

    def test_closed_update_gate_is_identity(self):
        params = GruLayerParams(2, 1)
        gate(params, "b_z")[:] = -50.0
        v = np.array([0.9, -0.3])
        h = gru_step(params, np.array([2.0]), v)
        np.testing.assert_allclose(h, v, atol=1e-6)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_output_is_convex_combination(self, seed):
        """Each unit of h lands between h_prev and the candidate state."""
        rng = np.random.default_rng(seed)
        params = GruLayerParams(4, 2)
        g = dict(params.gates())
        for name in ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h"):
            g[name][...] = rng.normal(scale=2.0, size=g[name].shape)
        x, h_prev = rng.normal(size=2), rng.normal(size=4)
        h = gru_step(params, x, h_prev)
        # recompute the candidate independently of the step implementation
        r = sigmoid(g["w_r"] @ x + g["u_r"] @ h_prev + g["b_r"])
        h_tilde = tanh(g["w_h"] @ x + r * (g["u_h"] @ h_prev) + g["b_h"])
        lo = np.minimum(h_prev, h_tilde) - 1e-12
        hi = np.maximum(h_prev, h_tilde) + 1e-12
        assert ((lo <= h) & (h <= hi)).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gru_step(GruLayerParams(3, 2), np.zeros(2), np.zeros(4))


class TestForward:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_zero_network_predicts_half(self, kind):
        net = zeroed_network(kind)
        preds, _ = forward(net, np.array([0.3, 0.9, 0.1, 0.7]))
        np.testing.assert_allclose(preds, 0.5, atol=1e-12)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_batched_forward_matches_single(self, kind):
        net = build_network(kind, 1, 6, seed=3)
        rng = np.random.default_rng(4)
        batch = rng.random((5, 4))
        batch_preds, _ = forward(net, batch)
        singles = [float(forward(net, row)[0]) for row in batch]
        np.testing.assert_allclose(batch_preds, singles, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_prediction_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        kind = "lstm" if seed % 2 else "gru"
        net = build_network(kind, 1, 5, seed=seed)
        preds, _ = forward(net, rng.normal(scale=10.0, size=(8, 4)))
        assert ((preds >= 0.0) & (preds <= 1.0)).all()

    def test_layer_dims_chain(self):
        net = build_network("lstm", 2, 7, seed=0)
        dims = [(l.input_dim, l.units) for l in net.layers]
        assert dims == [(1, 4), (4, 7), (7, 7)]

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_empty_batch(self, kind):
        preds, _ = forward(build_network(kind, 1, 3, seed=0), np.zeros((0, 4)))
        assert preds.shape == (0,)

    def test_wrong_window_rejected(self):
        net = build_network("gru", 1, 4, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros(5))


class TestLoss:
    def test_hand_values(self):
        assert mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
        assert mse_loss(np.array([0.0, 1.0]), np.array([1.0, 1.0])) == 0.5
        assert abs(mse_loss(np.array([0.2, 0.4, 0.9]), np.array([0.0, 0.5, 1.0])) - 0.02) < 1e-12

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            mse_loss(np.zeros(2), np.zeros(3))
        with pytest.raises(Empty):
            mse_loss(np.zeros(0), np.zeros(0))


def relative_gradient_errors(net, inputs, targets, eps=1e-5):
    """Worst relative disagreement between BPTT and central differences.

    The numeric derivative uses the factored form mean((f+ - f-)(f+ + f- - 2y))
    which avoids the loss-difference cancellation of naively subtracting
    two near-equal MSE values.
    """
    preds, tape = forward(net, inputs)
    grads = backward(net, targets, tape)
    worst = 0.0
    n = len(targets)
    for path, arr in net.parameters():
        grad = grads[path]
        flat = arr.ravel()
        gflat = np.asarray(grad).ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            pp, _ = forward(net, inputs)
            flat[j] = orig - eps
            pm, _ = forward(net, inputs)
            flat[j] = orig
            numeric = float(np.mean((pp - pm) * (pp + pm - 2.0 * targets))) / (2.0 * eps)
            analytic = float(gflat[j])
            if abs(analytic) < 1e-10 and abs(numeric) < 1e-10:
                continue
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
            worst = max(worst, rel)
    return worst


class TestGradients:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("seed", GRADCHECK_SEEDS[:2])
    def test_bptt_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        net = build_network(kind, 1, 8, seed=seed)
        inputs = rng.random((8, 4))
        targets = rng.random(8)
        assert relative_gradient_errors(net, inputs, targets) < 1e-5

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_two_layer_gradients(self, kind):
        rng = np.random.default_rng(6)
        net = build_network(kind, 2, 5, seed=6)
        inputs = rng.random((4, 4))
        targets = rng.random(4)
        assert relative_gradient_errors(net, inputs, targets) < 1e-5

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_gradients_vanish_at_exact_fit(self, kind):
        """Predictions equal to targets put MSE at a stationary point."""
        net = zeroed_network(kind)
        inputs = np.random.default_rng(0).random((6, 4))
        preds, tape = forward(net, inputs)
        grads = backward(net, np.full(6, 0.5), tape)
        for path, _ in net.parameters():
            np.testing.assert_array_equal(grads[path], 0.0)

    def test_tape_target_mismatch(self):
        net = build_network("lstm", 1, 4, seed=0)
        _, tape = forward(net, np.zeros((3, 4)))
        with pytest.raises(TapeMismatch):
            backward(net, np.zeros(5), tape)

    def test_tape_from_other_kind_rejected(self):
        lstm = build_network("lstm", 1, 4, seed=0)
        gru = build_network("gru", 1, 4, seed=0)
        _, tape = forward(gru, np.zeros((2, 4)))
        with pytest.raises(TapeMismatch):
            backward(lstm, np.zeros(2), tape)


def fit_loop(net, inputs, targets, epochs, seed, tapes):
    """_fit's training loop, also recording every gradient vector. tapes
    is a dict of tapes reused by batch size, or None for a fresh tape on
    every forward(). Returns (flat bytes, loss trace, gradient bytes)."""
    opt = AdamOptimizer(net)
    rng = np.random.default_rng(seed)
    trace, grads = [], []
    for _ in range(epochs):
        order = rng.permutation(targets.size)
        sq_sum = 0.0
        for start in range(0, targets.size, BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            if tapes is not None and idx.size not in tapes:
                tapes[idx.size] = Tape(net, idx.size)
            preds, tape = forward(net, inputs[idx], None if tapes is None else tapes[idx.size])
            sq_sum += float(np.sum((preds - targets[idx]) ** 2))
            g = backward(net, targets[idx], tape)
            grads.append(g.flat.tobytes())
            opt.step(net, g)
        trace.append(sq_sum / targets.size)
    return net.flat.tobytes(), trace, grads


def tape_arrays(tape):
    """Every array a tape and its layer tapes hold, by name."""
    holders = [("tape", tape)] + [(f"layers[{k}]", layer) for k, layer in enumerate(tape.layers)]
    return {f"{where}.{name}": value.tobytes() for where, holder in holders
            for name, value in vars(holder).items() if isinstance(value, np.ndarray)}


class TestTape:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_reused_tapes_train_bit_for_bit_like_fresh_ones(self, kind):
        """70 windows in batches of 32 end on a ragged batch of 6, which
        gets a tape of its own."""
        rng = np.random.default_rng(7)
        inputs, targets = rng.random((70, 4)), rng.random(70)
        runs = [fit_loop(build_network(kind, 2, 5, seed=3), inputs, targets,
                         epochs=3, seed=1, tapes=tapes) for tapes in (None, {})]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2] and len(runs[0][2]) == 9

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_fit_matches_a_fresh_tape_loop(self, kind):
        """74 training windows: two batches of 32 and a ragged 10."""
        series = np.random.default_rng(2).random(100)
        dataset = ClusterDataset(cluster=0, train=make_windows(series[:78]),
                                 test=make_windows(series[78:]),
                                 scaler=MinMaxScaler(lo=0.0, hi=1.0))
        net, trace = _fit(kind, 1, 6, dataset, TrainConfig(epochs=2), seed=4)
        flat, ref_trace, _ = fit_loop(build_network(kind, 1, 6, seed=[4, 0]),
                                      dataset.train.inputs, dataset.train.targets,
                                      epochs=2, seed=[4, 1], tapes=None)
        assert net.flat.tobytes() == flat
        assert trace == ref_trace

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_a_fresh_forward_leaves_an_earlier_tape_alone(self, kind):
        net = build_network(kind, 2, 4, seed=0)
        rng = np.random.default_rng(0)
        _, first = forward(net, rng.random((5, 4)))
        before = tape_arrays(first)
        _, second = forward(net, rng.random((5, 4)))
        backward(net, rng.random(5), second)
        assert second is not first
        assert tape_arrays(first) == before

    @pytest.mark.parametrize("case", ["batch size", "kind", "network"])
    def test_forward_rejects_a_tape_built_for_something_else(self, case):
        net = build_network("lstm", 1, 4, seed=0)
        other = {"batch size": net, "kind": build_network("gru", 1, 4, seed=0),
                 "network": build_network("lstm", 1, 4, seed=0)}[case]
        tape = Tape(other, 3 if case == "batch size" else 5)
        with pytest.raises(TapeMismatch):
            forward(net, np.zeros((5, 4)), tape)

    def test_backward_rejects_a_tape_of_another_network(self):
        net, twin = build_network("gru", 1, 4, seed=0), build_network("gru", 1, 4, seed=0)
        _, tape = forward(twin, np.zeros((2, 4)))
        with pytest.raises(TapeMismatch):
            backward(net, np.zeros(2), tape)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_saturated_gates_warn_nothing_and_stay_finite(self, kind):
        """Gate pre-activations near -1000 overflow exp(-x); the gates
        saturate to 0 with neither a RuntimeWarning nor a NaN."""
        net = build_network(kind, 2, 5, seed=0)
        for layer in net.layers:
            layer.b[...] = -1000.0
            layer.wx[...] *= 300.0
        inputs = np.random.default_rng(0).normal(size=(6, 4)) * 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preds, tape = forward(net, inputs)
            grads = backward(net, np.full(6, 0.3), tape)
        assert (tape.layers[0].s == 0.0).any()
        assert np.isfinite(preds).all() and np.isfinite(grads.flat).all()


# ADAM's textbook settings (Kingma and Ba), written out so that a change
# to recurrent's constants fails here.
ALPHA, BETA1, BETA2, EPS = 0.001, 0.9, 0.999, 1e-8


class TestAdam:
    def test_zero_gradient_leaves_parameter(self):
        p = np.array([1.0, -2.0])
        new_p, m, v = adam_update(p, np.zeros(2), np.zeros(2), np.zeros(2), t=1)
        np.testing.assert_array_equal(new_p, p)
        np.testing.assert_array_equal(m, 0.0)

    def test_first_step_with_unit_gradient(self):
        new_p, m, v = adam_update(np.zeros(1), np.ones(1), np.zeros(1), np.zeros(1), t=1)
        expected = -ALPHA / (1.0 + EPS)
        np.testing.assert_allclose(new_p, expected, rtol=1e-15)

    def test_step_size_bounded_by_alpha(self):
        """A constant gradient cannot move a parameter more than ~alpha per step."""
        p, m, v = np.zeros(1), np.zeros(1), np.zeros(1)
        for t in range(1, 201):
            new_p, m, v = adam_update(p, np.ones(1), m, v, t=t)
            if t >= 100:
                assert abs(new_p[0] - p[0]) <= ALPHA * 1.001
            p = new_p

    def test_update_is_pure(self):
        p, g = np.ones(2), np.ones(2)
        m, v = np.zeros(2), np.zeros(2)
        adam_update(p, g, m, v, t=1)
        np.testing.assert_array_equal(p, 1.0)
        np.testing.assert_array_equal(m, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            adam_update(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), t=0)
        with pytest.raises(ShapeMismatch):
            adam_update(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), t=1)

    def test_optimizer_applies_updates_deterministically(self):
        def run():
            net = build_network("gru", 1, 4, seed=1)
            opt = AdamOptimizer(net)
            rng = np.random.default_rng(2)
            inputs, targets = rng.random((8, 4)), rng.random(8)
            for _ in range(5):
                _, tape = forward(net, inputs)
                opt.step(net, backward(net, targets, tape))
            return np.concatenate([a.ravel() for _, a in net.parameters()])
        np.testing.assert_array_equal(run(), run())

    def test_update_matches_reference_formula(self):
        """adam_update evaluates the textbook expression in its order, bit for bit."""
        rng = np.random.default_rng(3)
        p, g = rng.normal(size=50), rng.normal(size=50)
        m, v = 0.1 * rng.normal(size=50), 0.01 * rng.random(50)
        for t in (1, 2, 7):
            new_p, new_m, new_v = adam_update(p, g, m, v, t)
            ref_m = BETA1 * m + (1.0 - BETA1) * g
            ref_v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat = ref_m / (1.0 - BETA1 ** t)
            v_hat = ref_v / (1.0 - BETA2 ** t)
            np.testing.assert_array_equal(new_m, ref_m)
            np.testing.assert_array_equal(new_v, ref_v)
            np.testing.assert_array_equal(new_p, p - ALPHA * m_hat / (np.sqrt(v_hat) + EPS))

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_flat_step_matches_per_array_updates(self, kind):
        """One in-place step over the flat vector equals adam_update on
        every parameter array, bit for bit, over several steps."""
        net = build_network(kind, 2, 5, seed=4)
        opt = AdamOptimizer(net)
        ref = {path: (arr.copy(), np.zeros_like(arr), np.zeros_like(arr))
               for path, arr in net.parameters()}
        rng = np.random.default_rng(5)
        for t in range(1, 7):
            _, tape = forward(net, rng.random((8, 4)))
            grads = backward(net, rng.random(8), tape)
            opt.step(net, grads)
            for path, arr in net.parameters():
                param, m, v = ref[path]
                ref[path] = adam_update(param, grads[path], m, v, t)
                np.testing.assert_array_equal(arr, ref[path][0], err_msg=f"{path} step {t}")


class TestFlatLayout:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_parameters_and_gradients_are_views_of_one_vector(self, kind):
        net = build_network(kind, 2, 3, seed=1)
        params = net.parameters()
        np.testing.assert_array_equal(net.flat, np.concatenate([a.ravel() for _, a in params]))
        assert all(np.shares_memory(arr, net.flat) for _, arr in params)
        _, tape = forward(net, np.full((3, 4), 0.5))
        grads = backward(net, np.zeros(3), tape)
        assert list(grads) == [path for path, _ in params]
        for path, arr in params:
            assert grads[path].shape == arr.shape
            assert np.shares_memory(grads[path], grads.flat)

    def test_per_gate_write_reaches_the_stacked_block(self):
        net = build_network("lstm", 1, 3, seed=0)
        x = np.random.default_rng(1).random((4, 4))
        before = forward(net, x)[0]
        layer, params = net.layers[1], dict(net.parameters())
        params["layers.1.w_hf"][0, 0] += 0.5
        params["layers.1.b_o"][:] = 2.0
        assert layer.wh[3, 0] == params["layers.1.w_hf"][0, 0]  # f is the second block of 3 rows
        np.testing.assert_array_equal(layer.b[9:], 2.0)
        assert not np.array_equal(forward(net, x)[0], before)

    def test_constructors_allocate_zero_blocks(self):
        lstm, gru = LstmLayerParams(2, 3), GruLayerParams(2, 1)
        assert (lstm.wx.shape, lstm.wh.shape, lstm.peep.shape, lstm.b.shape) == (
            (8, 3), (8, 2), (6,), (8,))
        assert lstm.flat.size == 24 + 16 + 6 + 8 and not lstm.flat.any()
        assert (gru.wx.shape, gru.wh.shape, gru.b.shape) == ((6, 1), (6, 2), (6,))
        assert gru.flat.size == 6 + 12 + 6 and not gru.flat.any()
        assert [key for key, _ in gru.gates()] == [
            "w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h"]
        assert all(np.shares_memory(view, gru.flat) for _, view in gru.gates())


class TestBuildAndPersist:
    def test_build_is_seeded(self):
        a = build_network("lstm", 1, 8, seed=5)
        b = build_network("lstm", 1, 8, seed=5)
        for (pa, va), (pb, vb) in zip(a.parameters(), b.parameters()):
            assert pa == pb
            np.testing.assert_array_equal(va, vb)

    def test_forget_bias_starts_at_one(self):
        net = build_network("lstm", 1, 8, seed=0)
        for layer in net.layers:
            np.testing.assert_array_equal(gate(layer, "b_f"), 1.0)
            np.testing.assert_array_equal(gate(layer, "b_i"), 0.0)
            np.testing.assert_array_equal(gate(layer, "w_ci"), 0.0)

    def test_glorot_bounds(self):
        net = build_network("gru", 1, 250, seed=0)
        w = gate(net.layers[1], "w_z")
        limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit  # actually spread out

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_network("rnn", 1, 4, seed=0)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_model_json_round_trip(self, tmp_path, kind):
        net = build_network(kind, 2, 5, seed=7)
        scaler = MinMaxScaler(lo=1.0, hi=9.0)
        path = tmp_path / "model.json"
        save_model_json(net, scaler, str(path))
        loaded, loaded_scaler = load_model_json(str(path))
        assert (loaded_scaler.lo, loaded_scaler.hi) == (1.0, 9.0)
        assert loaded.cell_kind == kind
        for (pa, va), (pb, vb) in zip(net.parameters(), loaded.parameters()):
            assert pa == pb
            np.testing.assert_array_equal(va, vb)
        x = np.random.default_rng(0).random((3, 4))
        np.testing.assert_array_equal(forward(net, x)[0], forward(loaded, x)[0])

    def test_model_json_without_scaler(self, tmp_path):
        """Every model file carries the scaler that de-normalizes its
        forecasts; `"scaler": null` is refused, naming the key."""
        path = tmp_path / "model.json"
        save_model_json(build_network("lstm", 1, 4, seed=0), SCALER, str(path))
        doc = json.loads(path.read_text())
        doc["scaler"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel) as exc:
            load_model_json(str(path))
        assert str(exc.value) == f"{path}: scaler: not a JSON object"

    def test_model_json_is_format_3_on_one_line(self, tmp_path):
        """A header without arrays, then the flat vector as one base64
        blob of little-endian float64 values."""
        path = tmp_path / "model.json"
        net = build_network("gru", 1, 3, seed=0)
        save_model_json(net, SCALER, str(path))
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == ["format", "cell_kind", "window", "activations", "scaler",
                             "layers", "parameters"]
        assert doc["format"] == 3
        assert doc["activations"] == {"gate": "sigmoid", "cell_input": "sigmoid",
                                      "cell_output": "sigmoid"}
        assert doc["layers"] == [{"input_dim": 1, "units": 4, "biases": True},
                                 {"input_dim": 4, "units": 3, "biases": True}]
        blob = base64.b64decode(doc["parameters"], validate=True)
        assert blob == net.flat.astype("<f8").tobytes()

    @pytest.mark.parametrize("version,message", [(None, "format: missing"),
                                                 (2, "format: 2, expected 3")])
    def test_refuses_per_gate_files(self, tmp_path, version, message):
        """Model formats 1 (no "format" key) and 2 held one key per gate
        array and a `head` object. Neither is read; the error names the
        format, not the first key that format 3 lacks."""
        net = build_network("gru", 1, 3, seed=12)
        doc = {"cell_kind": "gru", "window": 4,
               "activations": {"gate": "sigmoid", "cell_input": "sigmoid",
                               "cell_output": "sigmoid"},
               "layers": [{"input_dim": layer.input_dim, "units": layer.units,
                           **{key: view.tolist() for key, view in layer.gates()}}
                          for layer in net.layers],
               "head": {"w": net.head_w.tolist(), "b": float(net.head_b[0])}, "scaler": None}
        if version is not None:
            doc = {"format": version, **doc}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel) as exc:
            load_model_json(str(path))
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("corrupt,message", [
        (on_format_3(lambda d: d["layers"][0].update(w_xz=[[0.0]] * 4)),
         "layers[0].w_xz: unknown key for a lstm layer"),
        (on_format_3(lambda d: d["layers"][0].update(units=0)),
         "layers[0].units: 0, expected a positive integer"),
        (on_format_3(lambda d: d["activations"].update(gate="relu")),
         "activations.gate: 'relu', expected 'sigmoid'"),
        (on_format_3(poison_parameter(-2)), "parameters: head.w holds a non-finite value"),
        (on_format_3(lambda d: d.pop("window")), "window: missing"),
        (on_format_3(lambda d: d.update(window=3)), "window: 3, expected 4"),
        (on_format_3(lambda d: d.update(window="4")), "window: '4', expected 4"),
        (on_format_3(lambda d: d.update(window=4.0)), "window: 4.0, expected 4"),
        (on_format_3(lambda d: d.update(format=4)), "format: 4, expected 3"),
        (on_format_3(lambda d: d.update(format=3.0)), "format: 3.0, expected 3"),
        (on_format_3(lambda d: d.update(parameters=d["parameters"][:-2] + "!=")),
         "parameters: not base64"),
        (on_format_3(drop_last_parameter), "parameters: 216 values, expected 217"),
        (on_format_3(lambda d: d["layers"][1].update(units=2)),
         "parameters: 217 values, expected 173"),
        (on_format_3(lambda d: d["layers"][1].update(units=0)),
         "layers[1].units: 0, expected a positive integer"),
        (on_format_3(lambda d: d["layers"][1].update(peepholes="yes")),
         "layers[1].peepholes: 'yes', expected true"),
        (on_format_3(lambda d: d["layers"][0].update(peepholes=False)),
         "layers[0].peepholes: False, expected true"),
        (on_format_3(lambda d: d["layers"][0].update(biases=False), kind="gru"),
         "layers[0].biases: False, expected true"),
        (on_format_3(lambda d: d["layers"][0].update(peepholes=1)),
         "layers[0].peepholes: 1, expected true"),
        (on_format_3(lambda d: d["activations"].update(cell_input="tanh")),
         "activations.cell_input: 'tanh', expected 'sigmoid'"),
        (on_format_3(poison_parameter(0)),
         "parameters: layers.0.w_xi holds a non-finite value"),
        (on_format_3(lambda d: d.update(scaler={"lo": float("nan"), "hi": 1.0})),
         "scaler.lo: nan, expected a finite number"),
        (on_format_3(lambda d: d.update(scaler={"lo": 0.0, "hi": float("inf")})),
         "scaler.hi: inf, expected a finite number"),
        (on_format_3(lambda d: d.update(scaler={"lo": 1.0, "hi": 1.0})),
         "scaler.hi: 1.0, expected a finite amount above scaler.lo = 1.0"),
        (on_format_3(lambda d: d.update(scaler={"lo": -1e308, "hi": 1e308})),
         "scaler.hi: 1e+308, expected a finite amount above scaler.lo = -1e+308"),
        (on_format_3(lambda d: d["layers"][0].update(w_xi=[[0.0]] * 4)),
         "layers[0].w_xi: unknown key for a lstm layer"),
        (on_format_3(lambda d: d.update(head={"w": [0.0] * 3, "b": 0.0})), "head: unknown key"),
        (on_format_3(lambda d: d.pop("parameters")), "parameters: missing"),
    ])
    def test_load_rejects_malformed_model(self, tmp_path, corrupt, message):
        doc = corrupt(tmp_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel) as exc:
            load_model_json(str(path))
        assert str(exc.value) == f"{path}: {message}"

    def test_load_rejects_a_chain_mismatch(self, tmp_path):
        """Each layer must read the units of the layer below it."""
        path = tmp_path / "m.json"
        save_model_json(build_network("gru", 2, 3, seed=0), SCALER, str(path))
        doc = json.loads(path.read_text())
        doc["layers"][1] = doc["layers"][2]  # (3 -> 3) where 4 -> 3 is due
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedModel, match=r"m.json: layers\[1\].input_dim: 3, expected 4"):
            load_model_json(str(path))

    def test_load_rejects_a_first_layer_not_window_wide(self, tmp_path):
        """build_network gives its first layer one unit per window
        position; a file of a network built by hand with 3 is refused."""
        net = RecurrentNetwork(cell_kind="lstm", layers=[LstmLayerParams(3, 1),
                                                         LstmLayerParams(5, 3)],
                               head_w=np.zeros(5), head_b=np.zeros(1))
        path = tmp_path / "m.json"
        save_model_json(net, SCALER, str(path))
        with pytest.raises(MalformedModel) as exc:
            load_model_json(str(path))
        assert str(exc.value) == f"{path}: layers[0].units: 3, expected 4"

    def test_load_rejects_text_that_is_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"cell_kind": "lstm", "layers": [')
        with pytest.raises(MalformedModel, match="m.json: not valid JSON"):
            load_model_json(str(path))
