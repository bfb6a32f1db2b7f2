"""Dataset generation, training protocol, MSE evaluation, experiments."""

import dataclasses

import numpy as np
import pytest

from pcsub.config import EXPERIMENTS, experiment_config, run_experiment
from pcsub.harness import (
    Dataset,
    LearningCurve,
    TeacherSpec,
    TrainProtocol,
    evaluate_dataset,
    generate_dataset,
    teacher_apply,
    teacher_params,
    train_network,
    write_curve_csv,
)
from pcsub.network import Network, NetworkConfig
from pcsub.rules import ConfigurationError

from refimpl import activation64

F32 = np.float32


# ---------------------------------------------------------------------------
# teachers and datasets
# ---------------------------------------------------------------------------


def test_relu_teacher_zero_output_matrix():
    spec = TeacherSpec("relu_teacher", (2, 4, 3), seed=9, weight_scale=1.0)
    params = teacher_params(spec)
    params["A"] = np.zeros_like(params["A"])
    for _ in range(10):
        x = np.random.default_rng(0).uniform(-1, 1, 2)
        assert not teacher_apply("relu_teacher", params, x).any()


def test_tanh_teacher_constant_when_b_zero():
    spec = TeacherSpec("tanh_teacher", (2, 2, 1), seed=9, weight_scale=1.0)
    params = teacher_params(spec)
    params["B"] = np.zeros_like(params["B"])
    params["b1"] = np.zeros_like(params["b1"])
    for x in ([0.5, -0.5], [1.0, 1.0]):
        y = teacher_apply("tanh_teacher", params, np.array(x))
        assert y == pytest.approx(params["b2"].astype(np.float64))


def test_tanh_teacher_uses_the_datapath_tanh():
    # tanh_ts's teacher on its own inputs: the binary64 output has the bits
    # of the same sums around refimpl's per-element math.tanh; numpy's
    # vector tanh may differ from it in the last bit, by host
    cfg = experiment_config("tanh_ts")
    spec = TeacherSpec(
        "tanh_teacher", (2, 2, 1), cfg.teacher_seed, cfg.teacher_weight_scale
    )
    params = teacher_params(spec)
    b_mat, a_mat = params["B"].astype(np.float64), params["A"].astype(np.float64)
    b1, b2 = params["b1"].astype(np.float64), params["b2"].astype(np.float64)
    for x in generate_dataset(spec, cfg.n_samples).inputs.astype(np.float64):
        pre = b_mat @ x + b1
        hidden = np.array([activation64("tanh", v) for v in pre.tolist()])
        want = a_mat @ hidden + b2
        assert teacher_apply("tanh_teacher", params, x).tobytes() == want.tobytes()


def test_dataset_deterministic():
    spec = TeacherSpec("relu_teacher", (2, 4, 3), seed=77, weight_scale=1.0)
    a = generate_dataset(spec, 16)
    b = generate_dataset(spec, 16)
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.targets.tobytes() == b.targets.tobytes()
    c = generate_dataset(TeacherSpec("relu_teacher", (2, 4, 3), 78, 1.0), 16)
    assert a.inputs.tobytes() != c.inputs.tobytes()


def test_dataset_shapes_and_range():
    spec = TeacherSpec("tanh_teacher", (3, 5, 2), seed=4, weight_scale=0.8)
    ds = generate_dataset(spec, 20)
    assert ds.inputs.shape == (20, 3) and ds.targets.shape == (20, 2)
    assert len(ds) == 20 and ds.dims == (3, 2)
    assert (np.abs(ds.inputs) <= 1).all()


def test_teacher_kind_validation():
    with pytest.raises(ConfigurationError):
        TeacherSpec("linear_teacher", (2, 2, 1), 0, 1.0)
    with pytest.raises(ConfigurationError):
        TeacherSpec("relu_teacher", (2, 0, 1), 0, 1.0)


@pytest.mark.parametrize(
    "scale", [float("nan"), float("inf"), -float("inf"), -0.5, 1e39]
)
def test_teacher_weight_scale_validation(scale):
    # the config parser's rule for teacher_weight_scale: finite in
    # binary32 and >= 0, rejected when the spec is built
    with pytest.raises(ConfigurationError, match="weight_scale"):
        TeacherSpec("relu_teacher", (2, 3, 1), 1, scale)


@pytest.mark.parametrize("seed", [-7, 2**64, 1.5])
def test_teacher_seed_validation(seed):
    # teacher_seed's rule: an integer in [0, 2**64)
    with pytest.raises(ConfigurationError, match="seed"):
        TeacherSpec("relu_teacher", (2, 3, 1), seed, 1.0)


def test_teacher_spec_stores_checked_values():
    # what the rules return is what the spec holds: a tuple of dims, a
    # Python int seed and a Python float scale
    spec = TeacherSpec("relu_teacher", [2, 3, 1], np.uint64(7), np.float32(0.5))
    assert spec.dims == (2, 3, 1)
    assert type(spec.seed) is int and type(spec.weight_scale) is float


@pytest.mark.parametrize(
    "dims, n_samples, field",
    [
        ((2, 2.5, 1), 4, "teacher dims"),
        ((2, True, 1), 4, "teacher dims"),
        ((2, 2, 1), 2.5, "n_samples"),
        ((2, 2, 1), np.bool_(True), "n_samples"),
    ],
)
def test_dataset_rejects_non_integer_sizes(dims, n_samples, field):
    # past the constructor, numpy would raise a bare TypeError
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        generate_dataset(TeacherSpec("relu_teacher", dims, 1, 1.0), n_samples)


# ---------------------------------------------------------------------------
# training protocol
# ---------------------------------------------------------------------------


def _small_setup(n_samples=8, **cfg_kw):
    cfg_kw.setdefault("activations", ["identity", "relu", "identity"])
    cfg_kw.setdefault("alpha", 0.01)
    cfg_kw.setdefault("gamma", 0.1)
    cfg_kw.setdefault("seed", 5)
    cfg = NetworkConfig([2, 4, 3], **cfg_kw)
    ds = generate_dataset(
        TeacherSpec("relu_teacher", (2, 4, 3), seed=11, weight_scale=1.0), n_samples
    )
    return cfg, ds


def test_protocol_validation():
    with pytest.raises(ConfigurationError):
        TrainProtocol(infer_ticks=0, learn_ticks=1, epochs=1, eval_ticks=1)
    with pytest.raises(ConfigurationError):
        TrainProtocol(infer_ticks=1, learn_ticks=-1, epochs=1, eval_ticks=1)


def test_protocol_is_frozen():
    # a field written after the build would pass no rule: infer_ticks = -5
    # would train with no inference ticks
    proto = TrainProtocol(infer_ticks=5, learn_ticks=2, epochs=3, eval_ticks=10)
    for field in dataclasses.fields(proto):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(proto, field.name, getattr(proto, field.name))
    # replace builds a new protocol, so the rules run again
    with pytest.raises(ConfigurationError, match="infer_ticks must be >= 1"):
        dataclasses.replace(proto, infer_ticks=-5)


@pytest.mark.parametrize(
    "counts", [(2.5, 1, 1, 1), (1, 1.0, 1, 1), (1, 1, True, 1), (1, 1, 1, "5")]
)
def test_protocol_rejects_non_integer_counts(counts):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        TrainProtocol(*counts)


def test_curve_length_is_epochs_plus_one():
    cfg, ds = _small_setup()
    proto = TrainProtocol(infer_ticks=5, learn_ticks=2, epochs=3, eval_ticks=10)
    curve = train_network(Network(cfg), ds, proto)
    assert len(curve) == 4
    assert len(curve.diverged) == 4


def test_alpha_zero_training_preserves_weights():
    cfg, ds = _small_setup(alpha=0.0)
    net = Network(cfg)
    before = [w.tobytes() for w in net.state.theta]
    train_network(net, ds, TrainProtocol(5, 3, 2, 10))
    after = [w.tobytes() for w in net.state.theta]
    assert before == after


def test_learn_ticks_zero_flat_curve():
    cfg, ds = _small_setup()
    curve = train_network(Network(cfg), ds, TrainProtocol(5, 0, 3, 20))
    assert all(v == curve.mse[0] for v in curve.mse)


def test_dimension_mismatch_rejected():
    cfg, _ = _small_setup()
    bad = generate_dataset(
        TeacherSpec("relu_teacher", (3, 4, 3), seed=1, weight_scale=1.0), 4
    )
    with pytest.raises(ConfigurationError):
        train_network(Network(cfg), bad, TrainProtocol(2, 1, 1, 5))


def test_divergence_recorded_training_continues():
    # an absurd step size blows the dynamics up; flags must record it and
    # the curve must still have every epoch entry
    cfg, ds = _small_setup(gamma=5.0, alpha=0.5, n_samples=4)
    curve = train_network(Network(cfg), ds, TrainProtocol(10, 5, 3, 10))
    assert len(curve) == 4
    assert any(curve.diverged)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_perfect_identity_chain():
    cfg = NetworkConfig([1, 1, 1], alpha=0.0, gamma=0.1, seed=0, init_scale=0.0)
    net = Network(cfg)
    for theta in net.state.theta[1:]:
        theta[0, 0] = F32(1.0)  # unit weight, zero bias
    xs = np.array([[0.9], [-0.4], [0.25], [0.65]], dtype=np.float32)
    ds = Dataset(inputs=xs, targets=xs.copy())
    assert evaluate_dataset(net, ds, eval_ticks=400)[0] < 1e-10


def test_evaluate_zero_weight_net_gives_target_power():
    cfg, _ = _small_setup(init_scale=0.0)
    ds = generate_dataset(
        TeacherSpec("relu_teacher", (2, 4, 3), seed=11, weight_scale=1.0), 12
    )
    got, _ = evaluate_dataset(Network(cfg), ds, eval_ticks=50)
    want = float((ds.targets.astype(np.float64) ** 2).mean())
    assert got == pytest.approx(want, rel=1e-12)


def test_evaluate_empty_dataset_rejected():
    cfg, _ = _small_setup()
    empty = Dataset(
        inputs=np.zeros((0, 2), np.float32), targets=np.zeros((0, 3), np.float32)
    )
    with pytest.raises(ConfigurationError):
        evaluate_dataset(Network(cfg), empty, eval_ticks=5)


@pytest.mark.parametrize("eval_ticks", [0, -3, 2.5, True])
def test_evaluate_rejects_bad_tick_count(eval_ticks):
    # 0 and -3 ticks would score the reset outputs without an error
    cfg, ds = _small_setup()
    with pytest.raises(ConfigurationError, match="eval_ticks"):
        evaluate_dataset(Network(cfg), ds, eval_ticks)


def test_evaluation_purity():
    cfg, ds = _small_setup()
    net = Network(cfg)
    before = [w.tobytes() for w in net.state.theta]
    evaluate_dataset(net, ds, eval_ticks=30)
    after = [w.tobytes() for w in net.state.theta]
    assert before == after


# ---------------------------------------------------------------------------
# canned experiments
# ---------------------------------------------------------------------------


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigurationError):
        run_experiment("cifar10")


def test_experiment_configs_parse():
    for name in EXPERIMENTS:
        cfg = experiment_config(name)
        assert cfg.epochs == 25
        assert len(cfg.layer_sizes) == 3


def test_run_experiment_writes_csv(tmp_path, short_experiments):
    curve, path = run_experiment("relu_ts", out_dir=tmp_path)
    assert path == tmp_path / "relu_ts.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mse"
    assert len(lines) == 4  # header + epochs 0..2
    assert lines[1].startswith("0,")
    # six fractional digits
    assert len(lines[1].split(",")[1].split(".")[1]) == 6


def test_run_experiment_seed_determinism(tmp_path, short_experiments):
    _, p1 = run_experiment("tanh_ts", seed=9, out_dir=tmp_path / "a")
    _, p2 = run_experiment("tanh_ts", seed=9, out_dir=tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    _, p3 = run_experiment("tanh_ts", seed=10, out_dir=tmp_path / "c")
    assert p1.read_bytes() != p3.read_bytes()


def test_write_curve_csv_nan(tmp_path):
    curve = LearningCurve(mse=[0.5, float("nan")], diverged=[False, True])
    path = tmp_path / "c.csv"
    write_curve_csv(curve, path)
    assert path.read_text() == "epoch,mse\n0,0.500000\n1,nan\n"
