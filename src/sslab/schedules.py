"""Golden-token sampling probabilities over training and decoding steps.

All schedules report the probability of feeding the *golden* token; the
probability of feeding a model prediction is its complement. Decay
families are defined on a continuous non-negative domain so they can be
composed (a joint strategy may evaluate one schedule at a non-integer
position); integer step indices are the common case.

Families:
    linear        max(epsilon, k*x + b), k < 0, clipped into [0, 1]
    exponential   k**x with 0 < k < 1
    sigmoid       k / (k + exp(x / k)) with k >= 1
    always_sample constant 0 (every input token is a model prediction)
    uniform       constant uniform_p
    empirical     1 - error_table[x], linearly interpolated, clamped at
                  the last entry for positions past the table end

Direction ``increase`` mirrors a decay family: it returns one minus the
decay value at the same argument. Every family's accumulated-error
integral has a closed form (the empirical one is exact trapezoids over
the table's knots), so no quadrature is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union


class ScheduleError(ValueError):
    """Schedule parameters violate the constraints of their family."""


class Family(str, Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"
    SIGMOID = "sigmoid"
    ALWAYS_SAMPLE = "always_sample"
    UNIFORM = "uniform"
    EMPIRICAL = "empirical"


class Direction(str, Enum):
    DECAY = "decay"
    INCREASE = "increase"


class JointMethod(str, Enum):
    PRODUCT = "product"
    ARITHMETIC_MEAN = "arithmetic_mean"
    COMPOSITE = "composite"
    # Ablation variant: compose the training-step schedule instead of the
    # decoding-step one.
    COMPOSITE_ALT = "composite_alt"


@dataclass(frozen=True)
class ScheduleSpec:
    """One named schedule family plus its shape parameters.

    ``k`` is family specific: slope for linear, radix for exponential,
    temperature for sigmoid. ``epsilon`` is the linear floor and ``b`` the
    linear offset. Instances are immutable and safe to share.
    """

    family: Family
    direction: Direction = Direction.DECAY
    k: float = 0.0
    epsilon: float = 0.2
    b: float = 1.0
    uniform_p: float = 0.5
    empirical_table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        fam = self.family
        if fam is Family.LINEAR:
            if not self.k < 0:
                raise ScheduleError(f"linear decay needs slope k < 0, got {self.k}")
            if not 0.0 <= self.epsilon <= 1.0:
                raise ScheduleError(f"linear floor must lie in [0, 1], got {self.epsilon}")
        elif fam is Family.EXPONENTIAL:
            if not 0.0 < self.k < 1.0:
                raise ScheduleError(f"exponential radix must satisfy 0 < k < 1, got {self.k}")
        elif fam is Family.SIGMOID:
            if not self.k >= 1.0:
                raise ScheduleError(f"sigmoid temperature must satisfy k >= 1, got {self.k}")
        elif fam is Family.UNIFORM:
            if not 0.0 <= self.uniform_p <= 1.0:
                raise ScheduleError(f"uniform probability must lie in [0, 1], got {self.uniform_p}")
        elif fam is Family.EMPIRICAL:
            if not self.empirical_table:
                raise ScheduleError("empirical family needs a non-empty error table")
            if any(not 0.0 <= e <= 1.0 for e in self.empirical_table):
                raise ScheduleError("empirical error rates must lie in [0, 1]")


@dataclass(frozen=True)
class JointSpec:
    """A combination rule over a training-step schedule f and a decoding-step schedule g."""

    method: JointMethod
    f: ScheduleSpec
    g: ScheduleSpec


AnySpec = Union[ScheduleSpec, JointSpec]


def _interp_table(table: tuple[float, ...], x: float) -> float:
    last = len(table) - 1
    if x >= last:
        return table[last]
    lo = int(math.floor(x))
    frac = x - lo
    if frac == 0.0:
        return table[lo]
    return table[lo] * (1.0 - frac) + table[lo + 1] * frac


def _decay_value(spec: ScheduleSpec, x: float) -> float:
    fam = spec.family
    if fam is Family.LINEAR:
        v = max(spec.epsilon, spec.k * x + spec.b)
        return min(1.0, max(0.0, v))
    if fam is Family.EXPONENTIAL:
        return spec.k ** x
    if fam is Family.SIGMOID:
        e = x / spec.k
        if e > 700.0:  # exp would overflow; the limit is 0
            return 0.0
        return spec.k / (spec.k + math.exp(e))
    if fam is Family.ALWAYS_SAMPLE:
        return 0.0
    if fam is Family.UNIFORM:
        return spec.uniform_p
    if fam is Family.EMPIRICAL:
        assert spec.empirical_table is not None
        return min(1.0, max(0.0, 1.0 - _interp_table(spec.empirical_table, x)))
    raise ScheduleError(f"unknown family {fam}")


def eval_schedule(spec: ScheduleSpec, step: float) -> float:
    """Probability of sampling the golden token at ``step`` (real-valued, >= 0)."""
    if step < 0:
        raise ScheduleError(f"schedule argument must be >= 0, got {step}")
    v = _decay_value(spec, float(step))
    if spec.direction is Direction.INCREASE:
        return 1.0 - v
    return v


def eval_joint(joint: JointSpec, train_step: float, dec_step: float) -> float:
    """Golden-token probability of the joint strategy at (train_step, dec_step)."""
    if joint.method is JointMethod.PRODUCT:
        return eval_schedule(joint.f, train_step) * eval_schedule(joint.g, dec_step)
    if joint.method is JointMethod.ARITHMETIC_MEAN:
        return 0.5 * (eval_schedule(joint.f, train_step) + eval_schedule(joint.g, dec_step))
    if joint.method is JointMethod.COMPOSITE:
        fi = eval_schedule(joint.f, train_step)
        return eval_schedule(joint.g, dec_step * (1.0 - fi))
    if joint.method is JointMethod.COMPOSITE_ALT:
        gt = eval_schedule(joint.g, dec_step)
        return eval_schedule(joint.f, train_step * (1.0 - gt))
    raise ScheduleError(f"unknown joint method {joint.method}")


def _linear_decay_integral(spec: ScheduleSpec, t: float) -> float:
    # Integrate min(1, max(eps, k*x + b)) on [0, t]; k < 0 so the line is
    # decreasing: a leading plateau at 1 (if b > 1), the linear stretch,
    # then the floor at eps.
    k, b, eps = spec.k, spec.b, spec.epsilon
    x_one = (1.0 - b) / k
    a = min(t, max(0.0, x_one))
    x_eps = (eps - b) / k
    c = min(t, max(a, x_eps))
    linear_part = 0.5 * k * (c * c - a * a) + b * (c - a)
    return a + linear_part + eps * (t - c)


def _empirical_decay_integral(spec: ScheduleSpec, t: float) -> float:
    # The interpolated error curve is piecewise linear with knots at the
    # integers, so the trapezoid rule is exact: whole segments left to
    # right, then the partial one ending at t or the flat tail past the table.
    assert spec.empirical_table is not None
    table = spec.empirical_table
    last = len(table) - 1
    whole = int(t) if t < last else last
    err_area = 0.0
    for j in range(whole):
        err_area += 0.5 * (table[j] + table[j + 1])
    if whole < last:
        err_area += 0.5 * (table[whole] + _interp_table(table, t)) * (t - whole)
    else:
        err_area += table[last] * (t - last)
    return t - err_area


def _decay_integral(spec: ScheduleSpec, t: float) -> float:
    """Integral of the decay form on [0, t], before direction is applied."""
    fam = spec.family
    if fam is Family.UNIFORM:
        return spec.uniform_p * t
    if fam is Family.ALWAYS_SAMPLE:
        return 0.0
    if fam is Family.EXPONENTIAL:
        if t == 0.0:
            return 0.0
        # expm1 avoids the cancellation in k**t - 1 as k -> 1
        log_k = math.log(spec.k)
        return math.expm1(t * log_k) / log_k
    if fam is Family.LINEAR:
        return _linear_decay_integral(spec, t)
    if fam is Family.SIGMOID:
        # t - k*ln((k + e^(t/k)) / (k + 1)), rewritten in e^(-t/k) so it
        # neither overflows nor cancels
        k = spec.k
        return k * math.log1p(-k * math.expm1(-t / k) / (1.0 + k * math.exp(-t / k)))
    if fam is Family.EMPIRICAL:
        return _empirical_decay_integral(spec, t)
    raise ScheduleError(f"unknown family {fam}")


def accumulated_errors(spec: ScheduleSpec, t: float) -> float:
    """Expected number of prediction-fed positions up to decoding step ``t``.

    This is the definite integral of (1 - golden probability) from 0 to t.
    It is non-negative, non-decreasing in t, and bounded above by t.
    """
    if t < 0:
        raise ScheduleError(f"integration bound must be >= 0, got {t}")
    t = float(t)
    d = _decay_integral(spec, t)
    if spec.direction is Direction.INCREASE:
        return d
    return t - d


CurveTable = tuple[list[str], list[list[float]]]


def dump_curves(specs: Mapping[str, AnySpec], max_i: int, max_t: int) -> dict[str, CurveTable]:
    """Tabulate schedules on the integer grid for CSV export.

    Scalar specs share two wide tables keyed ``"values"`` and
    ``"accumulated"`` (header ``step,<name>,...``, rows for step in
    [0, max_t)). Each joint spec gets its own long-format table keyed
    ``"joint_<name>"`` with header ``i,t,value`` over [0, max_i) x [0, max_t).
    """
    if max_i < 1 or max_t < 1:
        raise ScheduleError("grid bounds must be >= 1")
    scalar = {n: s for n, s in specs.items() if isinstance(s, ScheduleSpec)}
    joints = {n: s for n, s in specs.items() if isinstance(s, JointSpec)}
    tables: dict[str, CurveTable] = {}
    if scalar:
        names = list(scalar)
        header = ["step"] + names
        value_rows = []
        accum_rows = []
        for t in range(max_t):
            value_rows.append([float(t)] + [eval_schedule(scalar[n], t) for n in names])
            accum_rows.append([float(t)] + [accumulated_errors(scalar[n], t) for n in names])
        tables["values"] = (header, value_rows)
        tables["accumulated"] = (header, accum_rows)
    for name, joint in joints.items():
        rows = [
            [float(i), float(t), eval_joint(joint, i, t)]
            for i in range(max_i)
            for t in range(max_t)
        ]
        tables[f"joint_{name}"] = (["i", "t", "value"], rows)
    return tables
