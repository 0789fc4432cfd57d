import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from sslab.schedules import (
    Direction,
    Family,
    JointMethod,
    JointSpec,
    ScheduleError,
    ScheduleSpec,
    accumulated_errors,
    dump_curves,
    eval_joint,
    eval_schedule,
)


def lin(k=-1 / 64, eps=0.2, b=1.0, direction=Direction.DECAY):
    return ScheduleSpec(Family.LINEAR, direction, k=k, epsilon=eps, b=b)


def expo(k=0.99, direction=Direction.DECAY):
    return ScheduleSpec(Family.EXPONENTIAL, direction, k=k)


def sig(k=20.0, direction=Direction.DECAY):
    return ScheduleSpec(Family.SIGMOID, direction, k=k)


def uni(p=0.5):
    return ScheduleSpec(Family.UNIFORM, uniform_p=p)


ALWAYS = ScheduleSpec(Family.ALWAYS_SAMPLE)


# ---------------------------------------------------------------------------
# closed-form point checks
# ---------------------------------------------------------------------------


def test_exponential_at_zero_is_one():
    assert eval_schedule(ScheduleSpec(Family.EXPONENTIAL, k=0.99999), 0) == 1.0


def test_linear_decay_halfway():
    # max(0.2, 1 - 32/64)
    assert eval_schedule(lin(), 32) == pytest.approx(0.5, abs=1e-15)


def test_linear_decay_hits_floor():
    assert eval_schedule(lin(), 64_000) == 0.2


def test_sigmoid_half_point():
    # exp(t/k) = k at t = k ln k, so the value is k/(k+k) = 1/2
    t = 20.0 * math.log(20.0)
    assert eval_schedule(sig(20.0), t) == pytest.approx(0.5, abs=1e-12)


def test_exponential_high_precision():
    # 0.99^128 evaluated with 50-digit arithmetic
    assert eval_schedule(expo(0.99), 128) == pytest.approx(0.27625166769920860312, abs=1e-12)


def test_always_sample_and_uniform():
    assert eval_schedule(ALWAYS, 7) == 0.0
    assert eval_schedule(uni(0.5), 123) == 0.5


def test_empirical_lookup_and_clamp():
    spec = ScheduleSpec(Family.EMPIRICAL, empirical_table=(0.1, 0.2, 0.6))
    assert eval_schedule(spec, 0) == pytest.approx(0.9)
    assert eval_schedule(spec, 1) == pytest.approx(0.8)
    assert eval_schedule(spec, 2) == pytest.approx(0.4)
    # beyond the table end: clamp to the last entry
    assert eval_schedule(spec, 50) == pytest.approx(0.4)
    # non-integer positions interpolate
    assert eval_schedule(spec, 0.5) == pytest.approx(0.85)


def test_invalid_parameters_rejected():
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.EXPONENTIAL, k=1.0)
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.EXPONENTIAL, k=-0.5)
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.SIGMOID, k=0.5)
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.LINEAR, k=0.01)
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.UNIFORM, uniform_p=1.5)
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.EMPIRICAL, empirical_table=())
    with pytest.raises(ScheduleError):
        ScheduleSpec(Family.EMPIRICAL, empirical_table=(0.5, 1.2))
    with pytest.raises(ScheduleError):
        eval_schedule(uni(), -1)


# ---------------------------------------------------------------------------
# joint combinations
# ---------------------------------------------------------------------------


def test_joint_product_and_mean():
    f = uni(0.5)
    g = uni(0.3)
    assert eval_joint(JointSpec(JointMethod.PRODUCT, f, uni(0.5)), 3, 9) == 0.25
    assert eval_joint(JointSpec(JointMethod.ARITHMETIC_MEAN, f, g), 3, 9) == pytest.approx(0.4)


def test_composite_at_training_start_feeds_all_golden():
    # f(i) = 1 at the very start, so g is evaluated at 0 for every t
    f = ScheduleSpec(Family.EXPONENTIAL, k=0.99999)
    for g in (expo(0.9), lin(), sig(5.0)):
        joint = JointSpec(JointMethod.COMPOSITE, f, g)
        for t in (0, 3, 17, 120):
            assert eval_joint(joint, 0, t) == eval_schedule(g, 0)


def test_composite_with_fully_decayed_f_is_identity():
    f = uni(0.0)
    g = expo(0.9)
    joint = JointSpec(JointMethod.COMPOSITE, f, g)
    for t in (0, 1, 5, 64):
        assert eval_joint(joint, 10, t) == eval_schedule(g, t)


def test_composite_alt_composes_f():
    f = expo(0.95)
    g = uni(0.25)
    joint = JointSpec(JointMethod.COMPOSITE_ALT, f, g)
    assert eval_joint(joint, 8, 3) == pytest.approx(eval_schedule(f, 8 * 0.75))


def test_composite_with_empirical_g_interpolates():
    g = ScheduleSpec(Family.EMPIRICAL, empirical_table=(0.0, 1.0))
    f = uni(0.5)
    joint = JointSpec(JointMethod.COMPOSITE, f, g)
    # position t*(1-f) = 1 * 0.5 -> halfway through the table
    assert eval_joint(joint, 0, 1) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# accumulated errors (Eq-style integral of the prediction probability)
# ---------------------------------------------------------------------------


def test_accumulated_uniform():
    assert accumulated_errors(uni(0.5), 10) == pytest.approx(5.0)


def test_accumulated_zero_for_all_golden():
    assert accumulated_errors(uni(1.0), 333.0) == 0.0


def test_accumulated_exponential_closed_form():
    assert accumulated_errors(expo(0.99), 128) == pytest.approx(55.987647094535216085, rel=1e-10)


def _quad_oracle(spec, t):
    # reimplementation of the decay forms, integrated by Gauss-Kronrod
    if spec.family is Family.LINEAR:
        f = lambda x: min(1.0, max(spec.epsilon, spec.k * x + spec.b))
        points = sorted(
            p for p in ((1.0 - spec.b) / spec.k, (spec.epsilon - spec.b) / spec.k) if 0 < p < t
        )
    elif spec.family is Family.EXPONENTIAL:
        f = lambda x: spec.k ** x
        points = []
    elif spec.family is Family.SIGMOID:
        f = lambda x: spec.k / (spec.k + math.exp(min(700.0, x / spec.k)))
        points = []
    elif spec.family is Family.UNIFORM:
        f = lambda x: spec.uniform_p
        points = []
    elif spec.family is Family.ALWAYS_SAMPLE:
        f = lambda x: 0.0
        points = []
    else:
        raise AssertionError(spec.family)
    golden = f if spec.direction is Direction.DECAY else (lambda x: 1.0 - f(x))
    val, _ = quad(lambda x: 1.0 - golden(x), 0.0, t, points=points or None, limit=200)
    return val


@pytest.mark.parametrize(
    "spec",
    [
        lin(),
        lin(k=-1 / 150_000),
        lin(k=-0.05, eps=0.0, b=1.3),
        lin(direction=Direction.INCREASE),
        expo(0.99),
        expo(0.9, direction=Direction.INCREASE),
        sig(20.0),
        sig(3.0, direction=Direction.INCREASE),
        uni(0.25),
        ALWAYS,
    ],
)
@pytest.mark.parametrize("t", [0.0, 0.7, 1.0, 16.0, 128.0, 512.0])
def test_accumulated_matches_quadrature(spec, t):
    got = accumulated_errors(spec, t)
    want = _quad_oracle(spec, t)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_accumulated_empirical_matches_trapezoid():
    import numpy as np

    table = (0.05, 0.3, 0.2, 0.9, 0.4)
    spec = ScheduleSpec(Family.EMPIRICAL, empirical_table=table)
    for t in (0.0, 0.5, 2.25, 4.0, 11.0):
        # independent route: sample the interpolated error curve densely
        xs = np.linspace(0.0, max(t, 1e-9), 20001)
        errs = np.interp(np.minimum(xs, len(table) - 1), np.arange(len(table)), table)
        want = float(np.trapezoid(errs, xs)) if t > 0 else 0.0
        assert accumulated_errors(spec, t) == pytest.approx(want, abs=1e-6)


def _knot_walk_accumulated(table, t):
    # reference: walk the segments one knot at a time, interpolating both ends
    def interp(x):
        if x >= len(table) - 1:
            return table[-1]
        lo = math.floor(x)
        frac = x - lo
        return table[lo] if frac == 0.0 else table[lo] * (1.0 - frac) + table[lo + 1] * frac

    err_area, x, j = 0.0, 0.0, 0
    while j < len(table) - 1 and x < t:
        hi = min(t, float(j + 1))
        err_area += 0.5 * (interp(x) + interp(hi)) * (hi - x)
        x, j = hi, j + 1
    if t > x:
        err_area += table[-1] * (t - x)
    return err_area


def test_accumulated_empirical_equals_the_knot_walk_bit_for_bit():
    rng = random.Random(2108)
    for _ in range(400):
        table = tuple(rng.choice([0.0, 1.0, rng.random()]) for _ in range(rng.randint(1, 12)))
        spec = ScheduleSpec(Family.EMPIRICAL, empirical_table=table)
        ts = [0.0, -0.0, float(len(table) - 1), len(table) + 2.5, rng.uniform(0, len(table) + 2),
              float(rng.randrange(len(table) + 2))]
        for t in ts:
            want = t - (t - _knot_walk_accumulated(table, t))  # the decay integral, then its complement
            got = accumulated_errors(spec, t)
            assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want, (table, t)


def _mp_sigmoid_accumulated(spec, t):
    # accumulated errors from the closed form t - k*ln((k + e^(t/k)) / (k + 1))
    # of the decay integral, evaluated at 50 digits
    with mpmath.workdps(50):
        k, t = mpmath.mpf(spec.k), mpmath.mpf(t)
        decay_area = t - k * mpmath.log((k + mpmath.exp(t / k)) / (k + 1))
        return float(t - decay_area if spec.direction is Direction.DECAY else decay_area)


def test_accumulated_sigmoid_matches_multiprecision_closed_form():
    rng = random.Random(1506)
    cases = [(k, t) for k in (1.0, 3e4) for t in (0.0, 1e-6, 1.0, 3e5)]
    for _ in range(1500):
        # log-uniform k reaches the sharp sigmoids near k = 1; uniform t
        # covers the far tail and log-uniform t the start
        k = 10 ** rng.uniform(0.0, math.log10(3e4))
        cases.append((k, rng.uniform(0.0, 3e5)))
        cases.append((k, 10 ** rng.uniform(-6.0, math.log10(3e5))))
    for k, t in cases:
        for direction in Direction:
            spec = sig(k, direction)
            want = _mp_sigmoid_accumulated(spec, t)
            assert accumulated_errors(spec, t) == pytest.approx(want, rel=1e-10, abs=0.0), (k, t, direction)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


def spec_strategy():
    linear = st.builds(
        lin,
        k=st.floats(-1.0, -1e-6, allow_nan=False),
        eps=st.floats(0.0, 1.0),
        b=st.floats(-0.5, 2.0),
    )
    expod = st.builds(expo, k=st.floats(1e-6, 1.0, exclude_max=True))
    sigd = st.builds(sig, k=st.floats(1.0, 1e5))
    unif = st.builds(uni, p=st.floats(0.0, 1.0))
    emp = st.builds(
        lambda t: ScheduleSpec(Family.EMPIRICAL, empirical_table=tuple(t)),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
    )
    return st.one_of(linear, expod, sigd, unif, emp, st.just(ALWAYS))


@given(spec_strategy(), st.floats(0.0, 1e6))
def test_eval_bounded(spec, step):
    v = eval_schedule(spec, step)
    assert 0.0 <= v <= 1.0


@given(spec_strategy(), st.floats(0.0, 1e5), st.floats(0.0, 1e5))
def test_parametric_decay_monotone(spec, s1, s2):
    if spec.family is Family.EMPIRICAL:
        return  # empirical tables follow their data, not a monotone form
    lo, hi = min(s1, s2), max(s1, s2)
    assert eval_schedule(spec, lo) >= eval_schedule(spec, hi)


@given(spec_strategy(), st.floats(0.0, 1e5))
def test_increase_is_exact_complement(spec, step):
    inc = ScheduleSpec(
        spec.family,
        Direction.INCREASE,
        k=spec.k,
        epsilon=spec.epsilon,
        b=spec.b,
        uniform_p=spec.uniform_p,
        empirical_table=spec.empirical_table,
    )
    assert eval_schedule(inc, step) + eval_schedule(spec, step) == 1.0


@given(spec_strategy(), st.floats(0.0, 512.0), st.floats(0.0, 512.0))
@example(expo(k=0.9999999999999998), 0.0, 1.375)  # k**t - 1 cancels as k -> 1
@settings(max_examples=60)
def test_accumulated_monotone_and_bounded(spec, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    a_lo = accumulated_errors(spec, lo)
    a_hi = accumulated_errors(spec, hi)
    assert a_lo <= a_hi + 1e-9
    assert -1e-9 <= a_lo <= lo + 1e-9


@given(spec_strategy(), spec_strategy(), st.integers(0, 1000), st.integers(0, 200))
@settings(max_examples=100)
def test_joint_bounded_and_symmetric(f, g, i, t):
    for method in JointMethod:
        v = eval_joint(JointSpec(method, f, g), i, t)
        assert 0.0 <= v <= 1.0
    prod = JointMethod.PRODUCT
    mean = JointMethod.ARITHMETIC_MEAN
    assert eval_joint(JointSpec(prod, f, g), i, t) == pytest.approx(
        eval_joint(JointSpec(prod, g, f), t, i)
    )
    assert eval_joint(JointSpec(mean, f, g), i, t) == pytest.approx(
        eval_joint(JointSpec(mean, g, f), t, i)
    )


# ---------------------------------------------------------------------------
# curve dumps
# ---------------------------------------------------------------------------


def test_dump_uniform_rows():
    tables = dump_curves({"u": uni(0.5)}, max_i=1, max_t=3)
    header, rows = tables["values"]
    assert header == ["step", "u"]
    assert rows == [[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]


def test_dump_exponential_monotone_column():
    tables = dump_curves({"e": expo(0.99)}, max_i=1, max_t=129)
    _, rows = tables["values"]
    col = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(col, col[1:]))
    _, acc_rows = tables["accumulated"]
    acc = [r[1] for r in acc_rows]
    assert all(a <= b for a, b in zip(acc, acc[1:]))


def test_dump_accumulated_is_accumulated_errors_on_grid():
    specs = {"s": sig(20.0), "si": sig(3.0, Direction.INCREASE), "e": expo(0.99), "l": lin()}
    header, rows = dump_curves(specs, max_i=1, max_t=300)["accumulated"]
    assert [r[0] for r in rows] == [float(t) for t in range(300)]
    for t, row in enumerate(rows):
        assert row[1:] == [accumulated_errors(specs[name], t) for name in header[1:]]


def test_dump_composite_grid_monotone_both_axes():
    joint = JointSpec(JointMethod.COMPOSITE, expo(0.9), expo(0.9))
    tables = dump_curves({"c": joint}, max_i=3, max_t=3)
    header, rows = tables["joint_c"]
    assert header == ["i", "t", "value"]
    assert len(rows) == 9
    grid = {(int(r[0]), int(r[1])): r[2] for r in rows}
    for i in range(3):
        for t in range(2):
            assert grid[(i, t)] >= grid[(i, t + 1)] - 1e-12
    for t in range(3):
        for i in range(2):
            assert grid[(i, t)] >= grid[(i + 1, t)] - 1e-12


def test_dump_rejects_empty_grid():
    with pytest.raises(ScheduleError):
        dump_curves({"u": uni()}, max_i=0, max_t=3)
