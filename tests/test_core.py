"""Neural core tests: stages, tick schedule, clamping, gradients, cycles.

Two independent references from ``refimpl`` are used: the discrete-time
update evaluated in binary64 straight from the component equations
(accuracy, 1e-5 absolute), and a second binary32 implementation with the
same pinned accumulation order (bit-exactness).
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsub.core import (
    ClampSignal,
    CoreConfig,
    NO_CLAMP,
    core_new,
    core_tick,
    effective_state,
    stage_backsum,
    stage_backvec,
    stage_err,
    stage_pred,
    stage_state,
    stage_wup,
    tick_cycles,
)
from pcsub.errors import ConfigurationError
from pcsub.scalar32 import apply_activation_vec

from refimpl import (
    check_state_gradient,
    check_weight_gradient,
    reference_bit32,
    reference_f64,
)

F32 = np.float32


def mkcfg(n, m, **kw):
    kw.setdefault("activation", "identity")
    return CoreConfig(n_presyn=n, m_back=m, **kw)


def f32s(*values):
    return np.array(values, dtype=np.float32)


# ---------------------------------------------------------------------------
# construction and effective state
# ---------------------------------------------------------------------------


def test_core_new_zeros():
    st_ = core_new(mkcfg(2, 0), [0.0, 0.0, 0.0], 0.0)
    assert st_.x == 0.0 and st_.eps == 0.0 and st_.b == 0.0
    assert st_.theta.tolist() == [0.0, 0.0, 0.0]


def test_core_new_bias_only_boundary():
    st_ = core_new(mkcfg(0, 3, has_upper=False), [0.5], 1.0)
    assert st_.theta.shape == (1,)
    assert st_.x == F32(1.0)


def test_core_new_length_mismatch():
    with pytest.raises(ConfigurationError):
        core_new(mkcfg(3, 0), [0.0, 0.0, 0.0], 0.0)


def test_boundary_core_requires_zero_fanin():
    with pytest.raises(ConfigurationError):
        mkcfg(2, 0, has_upper=False)


def test_effective_state():
    st_ = core_new(mkcfg(0, 0), [0.0], 0.3)
    assert effective_state(st_, ClampSignal(False, 9.9)) == F32(0.3)
    assert effective_state(st_, ClampSignal(True, 0.7)) == F32(0.7)
    st_.x = F32(float("nan"))
    assert effective_state(st_, ClampSignal(True, 0.0)) == F32(0.0)


# ---------------------------------------------------------------------------
# individual stages against frozen values
# ---------------------------------------------------------------------------


def test_stage_pred_derived():
    cfg = mkcfg(2, 0)
    st_ = core_new(cfg, [0.5, -1.0, 0.25], 0.0)
    presyn_f = apply_activation_vec("relu", f32s(2.0, 3.0))
    mu = stage_pred(st_, presyn_f)
    # binary64 reference: 0.5*2 - 1*3 + 0.25 (exact in binary32)
    assert mu == F32(-1.75)


def test_stage_pred_zero_weights():
    cfg = mkcfg(3, 0)
    st_ = core_new(cfg, [0.0] * 4, 0.0)
    assert stage_pred(st_, f32s(1.0, -2.0, 0.5)) == 0.0


def test_stage_pred_bias_only():
    cfg = mkcfg(0, 0)
    st_ = core_new(cfg, [0.25], 0.0)
    assert stage_pred(st_, f32s()) == F32(0.25)


def test_stage_err_cases():
    st_ = core_new(mkcfg(0, 0), [0.0], 0.0)
    assert stage_err(st_, F32(1.0), F32(-1.75)) == F32(2.75)
    assert stage_err(st_, F32(0.5), F32(0.5)) == 0.0
    assert stage_err(st_, F32(0.0), F32(0.0)) == 0.0


def test_stage_backsum_derived():
    st_ = core_new(mkcfg(0, 3, has_upper=False), [0.0], 0.0)
    back = np.array([0.1, -0.3, 0.05], dtype=np.float32)
    b = stage_backsum(st_, back)
    # pinned ascending binary32 accumulation; frozen value one ulp from
    # the rounded binary64 sum
    assert b.tobytes() == F32(-0.15000002).tobytes()
    ref64 = F32(sum(float(v) for v in back))
    assert abs(float(b) - float(ref64)) <= float(np.spacing(F32(0.15)))
    assert st_.b == b


def test_stage_backsum_empty_and_single():
    st_ = core_new(mkcfg(0, 0, has_upper=False), [0.0], 0.0)
    assert stage_backsum(st_, np.zeros(0, np.float32)) == 0.0
    assert stage_backsum(st_, np.array([0.7], np.float32)) == F32(0.7)


def test_stage_backvec():
    cfg = mkcfg(2, 0)
    st_ = core_new(cfg, [0.5, -1.0, 0.125], 0.0)
    st_.eps = F32(2.0)
    assert stage_backvec(st_).tolist() == [1.0, -2.0]
    st_.eps = F32(0.0)
    assert stage_backvec(st_).tolist() == [0.0, 0.0]
    st0 = core_new(mkcfg(0, 0, has_upper=False), [0.25], 0.0)
    st0.eps = F32(3.0)
    assert stage_backvec(st0).shape == (0,)


def test_stage_wup_derived_delta():
    cfg = mkcfg(1, 0)
    st_ = core_new(cfg, [0.0, 0.0], 0.0)
    st_.eps = F32(2.0)
    stage_wup(st_, f32s(0.5), F32(0.1), cfg)
    assert st_.theta[0] == F32(0.1)  # alpha*eps*f = 0.1*2*0.5, exact
    assert st_.theta[1] == F32(0.2)  # bias: alpha*eps*1


def test_stage_wup_alpha_zero_bit_identical():
    cfg = mkcfg(2, 0)
    weights = np.array([0.3, -0.7, float("nan")], dtype=np.float32)
    st_ = core_new(cfg, weights, 0.0)
    st_.eps = F32(5.0)
    stage_wup(st_, f32s(float("inf"), 1.0), F32(0.0), cfg)
    assert st_.theta.tobytes() == weights.astype(np.float32).tobytes()


def test_stage_wup_bias_frozen():
    cfg = mkcfg(1, 0, bias_frozen=True)
    st_ = core_new(cfg, [0.0, 0.5], 0.0)
    st_.eps = F32(2.0)
    stage_wup(st_, f32s(0.5), F32(0.1), cfg)
    assert st_.theta[0] == F32(0.1)
    assert st_.theta[1] == F32(0.5)


def test_stage_wup_bias_scale():
    cfg = mkcfg(0, 0, alpha_bias_scale=0.5)
    st_ = core_new(cfg, [0.0], 0.0)
    st_.eps = F32(2.0)
    stage_wup(st_, f32s(), F32(0.1), cfg)
    assert st_.theta[0] == (F32(0.1) * F32(0.5)) * F32(2.0)


def test_stage_state_derived():
    cfg = mkcfg(0, 1, has_upper=False)
    st_ = core_new(cfg, [0.0], 1.0)
    st_.eps = F32(0.1)
    st_.b = F32(0.2)
    stage_state(st_, F32(1.0), NO_CLAMP, False, F32(0.05), cfg)
    # binary64 reference 1.005; frozen binary32 path value
    assert st_.x.tobytes() == F32(1.005).tobytes()
    assert abs(float(st_.x) - 1.005) < 1e-8


def test_stage_state_hard_clamp_overrides():
    cfg = mkcfg(0, 0, has_upper=False)
    st_ = core_new(cfg, [0.0], 1.0)
    st_.eps = F32(123.0)
    st_.b = F32(-55.0)
    stage_state(st_, F32(0.7), ClampSignal(True, 0.7), True, F32(0.5), cfg)
    assert st_.x.tobytes() == F32(0.7).tobytes()


def test_stage_state_fixed_point():
    cfg = mkcfg(0, 0, has_upper=False)
    st_ = core_new(cfg, [0.0], 0.875)
    stage_state(st_, st_.x, NO_CLAMP, False, F32(0.25), cfg)
    assert st_.x == F32(0.875)


# ---------------------------------------------------------------------------
# full tick: cycle accounting and trivial behavior
# ---------------------------------------------------------------------------


A01, G05 = F32(0.01), F32(0.05)


@pytest.mark.parametrize("n,m,expected", [(3, 5, 18), (2, 0, 10), (0, 0, 4)])
def test_tick_cycle_examples(n, m, expected):
    assert tick_cycles(n, m) == expected


def test_tick_cycles_boundary():
    assert tick_cycles(0, 4, has_upper=False) == 6
    assert tick_cycles(0, 0, has_upper=False) == 2


def test_cycles_formula_sweep():
    # every fan-in pair ticks, emits N products, and costs 3N+M+4 (M+2 at
    # the top); the count is a function of the shape alone
    for n in range(17):
        for m in range(17):
            cfg = mkcfg(n, m)
            st_ = core_new(cfg, np.zeros(n + 1, np.float32), 0.0)
            zeros = np.zeros(n, np.float32)
            out = core_tick(st_, cfg, A01, G05, zeros, np.zeros(m, np.float32))
            assert out.shape == (n,)
            assert tick_cycles(n, m) == 3 * n + m + 4
    for m in range(17):
        cfg = mkcfg(0, m, has_upper=False)
        st_ = core_new(cfg, np.zeros(1, np.float32), 0.0)
        core_tick(st_, cfg, A01, G05, f32s(), np.zeros(m, np.float32))
        assert tick_cycles(0, m, has_upper=False) == m + 2


def test_tick_all_zero_is_identity():
    cfg = mkcfg(2, 3)
    st_ = core_new(cfg, [0.0, 0.0, 0.0], 0.25)
    out = core_tick(st_, cfg, A01, G05, f32s(0.0, 0.0), np.zeros(3, np.float32))
    assert st_.eps == F32(0.25)  # mu = 0, eps = x_start
    assert out.tolist() == [0.0, 0.0]  # products of the zero weights
    # zero f(presyn) makes every weight delta alpha*eps*0 = 0
    assert st_.theta[:2].tolist() == [0.0, 0.0]
    # bias lane does move: alpha*eps*1
    assert st_.theta[2] == F32(0.01) * F32(0.25)
    # eps nonzero pulls x toward mu: x decreases by gamma*eps
    assert st_.x == F32(0.25) + F32(0.05) * (F32(0.0) - F32(0.25))


def test_tick_registered_output_is_pre_tick_state():
    # the emitted products use the weights held at the start of the tick,
    # while the core's own weights and state move
    cfg = mkcfg(1, 0)
    st_ = core_new(cfg, [0.5, 0.0], 1.0)
    out = core_tick(st_, cfg, F32(0.1), F32(0.5), f32s(1.0), f32s())
    assert st_.eps == F32(0.5)  # mu = 0.5*1 + 0
    assert out.tolist() == [0.25]  # 0.5 * eps, pre-update theta
    assert st_.theta[0] == F32(0.55)  # 0.5 + 0.1*0.5*1
    assert st_.x == F32(0.75)  # 1 + 0.5*(0 - 0.5)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    state: object
    cfg: CoreConfig
    presyn_kind: str
    alpha: np.float32
    gamma: np.float32
    presyn: np.ndarray
    back: np.ndarray
    clamp: ClampSignal
    hard: bool

    def tick(self, **change):
        c = self._replace(**change)
        presyn_f = apply_activation_vec(c.presyn_kind, c.presyn)
        return core_tick(
            c.state, c.cfg, c.alpha, c.gamma, presyn_f, c.back, c.clamp, c.hard
        )

    def reference(self, ref, **change):
        c = self._replace(**change)
        return ref(
            c.state.x, c.state.theta.copy(), c.presyn, c.back, c.cfg,
            c.presyn_kind, c.alpha, c.gamma, c.clamp, c.hard,
        )


def _random_case(rng, force_clamp=None):
    n = int(rng.integers(0, 7))
    m = int(rng.integers(0, 7))
    kinds = ["identity", "relu", "tanh"]
    activation = kinds[rng.integers(0, 3)]
    presyn_kind = kinds[rng.integers(0, 3)]
    alpha = F32(rng.choice([0.0, 0.01, 0.1]))
    gamma = F32(rng.choice([0.0, 0.05, 0.2]))
    cfg = mkcfg(
        n,
        m,
        activation=activation,
        alpha_bias_scale=float(rng.choice([1.0, 0.5])),
        bias_frozen=bool(rng.integers(0, 2)),
    )
    theta = rng.uniform(-1, 1, n + 1).astype(np.float32)
    st_ = core_new(cfg, theta, float(rng.uniform(-1, 1)))
    presyn = rng.uniform(-1, 1, n).astype(np.float32)
    back = rng.uniform(-1, 1, m).astype(np.float32)
    if force_clamp is None:
        clamped = bool(rng.integers(0, 2))
    else:
        clamped = force_clamp
    clamp = (
        ClampSignal(True, float(rng.uniform(-1, 1))) if clamped else NO_CLAMP
    )
    hard = bool(rng.integers(0, 2))
    return Case(st_, cfg, presyn_kind, alpha, gamma, presyn, back, clamp, hard)


def test_stage_equivalence_1000_random_cores():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        case = _random_case(rng)
        st_ = case.state
        ref64_x, ref64_theta, _ = case.reference(reference_f64)
        ref32_x, ref32_theta, ref32_eps = case.reference(reference_bit32)
        case.tick()
        assert abs(float(st_.x) - ref64_x) < 1e-5
        for j in range(case.cfg.n_presyn + 1):
            assert abs(float(st_.theta[j]) - ref64_theta[j]) < 1e-5
        assert st_.x.tobytes() == ref32_x.tobytes()
        assert st_.theta.tobytes() == ref32_theta.tobytes()
        assert st_.eps.tobytes() == ref32_eps.tobytes()


# ---------------------------------------------------------------------------
# gradient properties by finite differences
# ---------------------------------------------------------------------------


def test_state_increment_matches_energy_gradient():
    # 100 random configurations, relu kinks excluded, 1e-3 relative
    assert check_state_gradient(np.random.default_rng(99), 100) == 100


def test_weight_increment_matches_energy_gradient():
    assert check_weight_gradient(np.random.default_rng(1001), 100) == 100


# ---------------------------------------------------------------------------
# clamp semantics
# ---------------------------------------------------------------------------


@given(
    obs=st.floats(allow_nan=False, allow_infinity=False, width=32),
    x0=st.floats(-10, 10, width=32),
)
@settings(max_examples=100)
def test_hard_clamp_absorption(obs, x0):
    cfg = mkcfg(1, 1)
    st_ = core_new(cfg, [0.5, -0.25], x0)
    clamp = ClampSignal(True, obs)
    _, _, ref_eps = reference_bit32(
        F32(x0), st_.theta.copy(), f32s(0.3), f32s(0.9), cfg,
        "identity", F32(0.1), F32(0.3), clamp, True,
    )
    core_tick(st_, cfg, F32(0.1), F32(0.3), f32s(0.3), f32s(0.9), clamp, True)
    assert st_.x.tobytes() == F32(obs).tobytes()
    # the tick's error is computed from the observation
    assert st_.eps.tobytes() == ref_eps.tobytes()


def test_soft_clamp_effect():
    rng = np.random.default_rng(5)
    for _ in range(200):
        case = _random_case(rng, force_clamp=False)
        if case.gamma == 0:
            continue
        soft = dict(clamp=ClampSignal(True, float(rng.uniform(-1, 1))), hard=False)
        ref_x, _, ref_eps = case.reference(reference_bit32, **soft)
        case.tick(**soft)
        # eps computed from the observation, not the stored state
        assert case.state.eps.tobytes() == ref_eps.tobytes()
        # but the stored state still integrates from the pre-tick x
        assert case.state.x.tobytes() == ref_x.tobytes()


def test_alpha_zero_tick_preserves_theta_bits():
    rng = np.random.default_rng(17)
    for _ in range(50):
        case = _random_case(rng)
        theta_before = case.state.theta.tobytes()
        case.tick(alpha=F32(0.0))
        assert case.state.theta.tobytes() == theta_before


def test_gamma_zero_unclamped_tick_preserves_x_bits():
    rng = np.random.default_rng(18)
    for _ in range(50):
        case = _random_case(rng, force_clamp=False)
        x_before = case.state.x.tobytes()
        case.tick(gamma=F32(0.0), clamp=NO_CLAMP, hard=False)
        assert case.state.x.tobytes() == x_before
