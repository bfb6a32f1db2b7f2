"""Neural core tests: stages, tick schedule, clamping, gradients, cycles.

Every single-core tick is a ``refimpl.Case``, ticked on ``refimpl``'s own
f and f' and checked against the discrete-time update evaluated in
binary64 straight from the component equations (``refimpl.reference_f64``,
1e-5 absolute). The stages are called directly on Python floats, as
``core_tick`` calls them, and their bits are pinned by frozen values; the
engine is checked against ``core_tick`` bit for bit in ``test_network``.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcsub.core import (
    stage_backsum,
    stage_backvec,
    stage_err,
    stage_pred,
    stage_state,
    stage_wup,
)
from pcsub.network import NO_CLAMP, ClampSignal, tick_cycles

from refimpl import (
    Case,
    activation32,
    check_cycle_sweep,
    check_state_gradient,
    check_weight_gradient,
    derivative32,
    mkcfg,
    random_case,
)

F32 = np.float32
TOP, LOWER = 0, 1  # the layer of a core without and with an upper layer
ONE = partial(derivative32, "identity")  # identity's f', which mkcfg's cores have


def f32s(*values):
    return np.array(values, dtype=np.float32)


def floats(*values):
    """Each value rounded to binary32, as the list of Python floats that
    the stage functions take."""
    return f32s(*values).tolist()


def bits(value) -> bytes:
    """The binary32 bytes of a stage's Python float result."""
    return F32(value).tobytes()


# ---------------------------------------------------------------------------
# effective state
# ---------------------------------------------------------------------------


def test_effective_state():
    # a top core predicts mu = 0, so its eps is the tick's effective state:
    # x when unclamped, the observation when clamped, even if x is NaN
    case = Case(mkcfg(), TOP, F32(0.0), f32s(0.0), F32(0.0), F32(0.0), f32s(), f32s())

    def eps_of(x, clamp):
        return case.tick(x=F32(x), clamp=clamp)[1]

    assert eps_of(0.3, ClampSignal(False, 9.9)) == F32(0.3)
    assert eps_of(0.3, ClampSignal(True, 0.7)) == F32(0.7)
    assert eps_of(float("nan"), ClampSignal(True, 0.0)) == F32(0.0)


# ---------------------------------------------------------------------------
# individual stages against frozen values
# ---------------------------------------------------------------------------


def test_stage_pred_derived():
    presyn_f = floats(*(activation32("relu", v) for v in (2.0, 3.0)))
    mu = stage_pred(floats(0.5, -1.0, 0.25), presyn_f)
    # binary64 reference: 0.5*2 - 1*3 + 0.25 (exact in binary32)
    assert mu == -1.75


def test_stage_pred_zero_weights():
    assert stage_pred(floats(0.0, 0.0, 0.0, 0.0), floats(1.0, -2.0, 0.5)) == 0.0


def test_stage_pred_bias_only():
    assert stage_pred(floats(0.25), floats()) == 0.25


def test_stage_err_cases():
    assert stage_err(1.0, -1.75) == 2.75
    assert stage_err(0.5, 0.5) == 0.0
    assert stage_err(0.0, 0.0) == 0.0


def test_stage_backsum_derived():
    back = floats(0.1, -0.3, 0.05)
    b = stage_backsum(back)
    # pinned ascending binary32 accumulation; frozen value one ulp from
    # the rounded binary64 sum
    assert bits(b) == F32(-0.15000002).tobytes()
    ref64 = F32(sum(back))
    assert abs(b - float(ref64)) <= float(np.spacing(F32(0.15)))


def test_stage_backsum_empty_and_single():
    assert stage_backsum(floats()) == 0.0
    assert bits(stage_backsum(floats(0.7))) == F32(0.7).tobytes()


def test_stage_backvec():
    theta = floats(0.5, -1.0, 0.125)
    assert stage_backvec(theta, 2.0) == [1.0, -2.0]
    assert stage_backvec(theta, 0.0) == [0.0, 0.0]
    assert stage_backvec(floats(0.25), 3.0) == []


def test_stage_wup_derived_delta():
    theta = floats(0.0, 0.0)
    stage_wup(mkcfg(), theta, floats(0.5), 2.0, float(F32(0.1)))
    assert bits(theta[0]) == F32(0.1).tobytes()  # alpha*eps*f = 0.1*2*0.5, exact
    assert bits(theta[1]) == F32(0.2).tobytes()  # bias: alpha*eps*1


def test_stage_wup_alpha_zero_bit_identical():
    weights = floats(0.3, -0.7, float("nan"))
    theta = list(weights)
    stage_wup(mkcfg(), theta, floats(float("inf"), 1.0), 5.0, 0.0)
    assert f32s(*theta).tobytes() == f32s(*weights).tobytes()


def test_stage_wup_bias_frozen():
    theta = floats(0.0, 0.5)
    stage_wup(mkcfg(bias_frozen=True), theta, floats(0.5), 2.0, float(F32(0.1)))
    assert bits(theta[0]) == F32(0.1).tobytes()
    assert theta[1] == 0.5


def test_stage_wup_bias_scale():
    theta = floats(0.0)
    stage_wup(mkcfg(alpha_bias_scale=0.5), theta, floats(), 2.0, float(F32(0.1)))
    assert bits(theta[0]) == ((F32(0.1) * F32(0.5)) * F32(2.0)).tobytes()


def test_stage_state_derived():
    x = stage_state(
        mkcfg(), ONE, 1.0, 1.0, float(F32(0.1)), float(F32(0.2)), NO_CLAMP,
        float(F32(0.05)),
    )
    # binary64 reference 1.005; frozen binary32 path value
    assert bits(x) == F32(1.005).tobytes()
    assert abs(x - 1.005) < 1e-8


def test_stage_state_hard_clamp_overrides():
    x = stage_state(
        mkcfg(clamp_hard=True), ONE, 1.0, float(F32(0.7)), 123.0, -55.0,
        ClampSignal(True, 0.7), 0.5,
    )
    assert bits(x) == F32(0.7).tobytes()


def test_stage_state_fixed_point():
    x = stage_state(mkcfg(), ONE, 0.875, 0.875, 0.0, 0.0, NO_CLAMP, 0.25)
    assert x == 0.875


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
    # the one sweep, which criterion 2 runs too
    check_cycle_sweep()


def test_tick_all_zero_is_identity():
    theta = f32s(0.0, 0.0, 0.0)
    x, eps, out = Case(
        mkcfg(), LOWER, F32(0.25), theta, A01, G05, f32s(0.0, 0.0),
        np.zeros(3, np.float32),
    ).tick()
    assert eps == F32(0.25)  # mu = 0, eps = x_start
    assert out.tolist() == [0.0, 0.0]  # products of the zero weights
    # zero f(presyn) makes every weight delta alpha*eps*0 = 0
    assert theta[:2].tolist() == [0.0, 0.0]
    # bias lane does move: alpha*eps*1
    assert theta[2] == F32(0.01) * F32(0.25)
    # eps nonzero pulls x toward mu: x decreases by gamma*eps
    assert x == F32(0.25) + F32(0.05) * (F32(0.0) - F32(0.25))


def test_tick_registered_output_is_pre_tick_state():
    # the emitted products use the weights held at the start of the tick,
    # while the core's own weights and state move
    theta = f32s(0.5, 0.0)
    x, eps, out = Case(
        mkcfg(), LOWER, F32(1.0), theta, F32(0.1), F32(0.5), f32s(1.0), f32s()
    ).tick()
    assert eps == F32(0.5)  # mu = 0.5*1 + 0
    assert out.tolist() == [0.25]  # 0.5 * eps, pre-update theta
    assert theta[0] == F32(0.55)  # 0.5 + 0.1*0.5*1
    assert x == F32(0.75)  # 1 + 0.5*(0 - 0.5)


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def test_stage_equivalence_1000_random_cores():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        case = random_case(rng)
        ref64_x, ref64_theta, _ = case.reference()
        x, eps, _ = case.tick()
        assert abs(float(x) - ref64_x) < 1e-5
        for j in range(len(case.theta)):
            assert abs(float(case.theta[j]) - ref64_theta[j]) < 1e-5


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
    case = Case(
        mkcfg(clamp_hard=True), LOWER, F32(x0), f32s(0.5, -0.25), F32(0.1),
        F32(0.3), f32s(0.3), f32s(0.9), ClampSignal(True, obs),
    )
    _, _, ref_eps = case.reference()
    x, eps, _ = case.tick()
    assert x.tobytes() == F32(obs).tobytes()
    # the tick's error is computed from the observation
    assert np.isclose(float(eps), ref_eps, rtol=1e-6, atol=1e-6)


def test_soft_clamp_effect():
    rng = np.random.default_rng(5)
    for _ in range(200):
        case = random_case(rng, force_clamp=False)
        if case.gamma == 0:
            continue
        soft = dict(clamp=ClampSignal(True, float(rng.uniform(-1, 1))), cfg=case.soft())
        ref_x, _, ref_eps = case.reference(**soft)
        x, eps, _ = case.tick(**soft)
        # eps computed from the observation, not the stored state
        assert abs(float(eps) - ref_eps) < 1e-5
        # but the stored state still integrates from the pre-tick x
        assert abs(float(x) - ref_x) < 1e-5


def test_alpha_zero_tick_preserves_theta_bits():
    rng = np.random.default_rng(17)
    for _ in range(50):
        case = random_case(rng)
        theta_before = case.theta.tobytes()
        case.tick(alpha=F32(0.0))
        assert case.theta.tobytes() == theta_before


def test_gamma_zero_unclamped_tick_preserves_x_bits():
    rng = np.random.default_rng(18)
    for _ in range(50):
        case = random_case(rng, force_clamp=False)
        x, _, _ = case.tick(gamma=F32(0.0), clamp=NO_CLAMP, cfg=case.soft())
        assert x.tobytes() == case.x.tobytes()
    # an infinite b too: the step is skipped, not taken as 0 * inf = NaN
    x, _, _ = Case(
        mkcfg(), LOWER, F32(0.5), f32s(0.0), A01, F32(0.0), f32s(), f32s(np.inf)
    ).tick()
    assert x.tobytes() == F32(0.5).tobytes()
