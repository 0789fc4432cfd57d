"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 and 10 are oracle-based and fast; there are no criteria 7-9.
Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
per-criterion lines appear.
"""

import math
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

import mpmath as mp

from batching import batch_of
from gradcheck import max_rel_error, numeric_grads
from test_decode import reference_beam_search
from sslab.data import BOS_ID, EOS_ID, TaskKind, batch_stream, gen_task
from sslab.decode import DecodeConfig, beam_search, length_penalty
from sslab.metrics import (
    decode_corpus,
    fuzzy_precision_per_step,
    strict_precision_per_step,
    token_accuracy,
)
from sslab.model import ModelConfig, init_params, teacher_forcing_loss
from sslab.rng import named_rng
from sslab.sampler import (
    OptimizerConfig,
    SamplerConfig,
    SamplingMode,
    golden_probability,
    sample_selection_mask,
    train,
    two_pass_loss,
)
from sslab.schedules import (
    Direction,
    Family,
    JointMethod,
    JointSpec,
    ScheduleSpec,
    accumulated_errors,
    eval_schedule,
)
from sslab.tensor import Tape, grad_of


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# random schedule generators shared by criteria 1, 2 and 5
# ---------------------------------------------------------------------------


def random_spec(rng, family=None, direction=None) -> ScheduleSpec:
    family = family or rng.choice(list(Family))
    direction = direction or (Direction.INCREASE if rng.random() < 0.3 else Direction.DECAY)
    if family is Family.LINEAR:
        return ScheduleSpec(
            family, direction,
            k=-(10.0 ** rng.uniform(-5, -0.3)),
            epsilon=float(rng.uniform(0.0, 1.0)),
            b=float(rng.uniform(-0.5, 2.0)),
        )
    if family is Family.EXPONENTIAL:
        return ScheduleSpec(family, direction, k=float(rng.uniform(1e-4, 0.999999)))
    if family is Family.SIGMOID:
        return ScheduleSpec(family, direction, k=float(10.0 ** rng.uniform(0, 4.5)))
    if family is Family.UNIFORM:
        return ScheduleSpec(family, direction, uniform_p=float(rng.uniform(0, 1)))
    if family is Family.EMPIRICAL:
        table = tuple(rng.uniform(0, 1, size=int(rng.integers(1, 12))).tolist())
        return ScheduleSpec(family, direction, empirical_table=table)
    return ScheduleSpec(Family.ALWAYS_SAMPLE, direction)


def mpmath_golden(spec: ScheduleSpec, step: float) -> float:
    """Independent high-precision evaluation of the schedule formulas."""
    x = mp.mpf(repr(step))
    if spec.family is Family.LINEAR:
        v = max(mp.mpf(repr(spec.epsilon)), mp.mpf(repr(spec.k)) * x + mp.mpf(repr(spec.b)))
        v = min(mp.mpf(1), max(mp.mpf(0), v))
    elif spec.family is Family.EXPONENTIAL:
        v = mp.mpf(repr(spec.k)) ** x
    elif spec.family is Family.SIGMOID:
        k = mp.mpf(repr(spec.k))
        v = k / (k + mp.e ** (x / k))
    elif spec.family is Family.UNIFORM:
        v = mp.mpf(repr(spec.uniform_p))
    elif spec.family is Family.EMPIRICAL:
        table = [mp.mpf(repr(e)) for e in spec.empirical_table]
        last = len(table) - 1
        if x >= last:
            e = table[last]
        else:
            lo = int(mp.floor(x))
            frac = x - lo
            e = table[lo] * (1 - frac) + table[lo + 1] * frac
        v = min(mp.mpf(1), max(mp.mpf(0), 1 - e))
    else:
        v = mp.mpf(0)
    if spec.direction is Direction.INCREASE:
        v = 1 - v
    return float(v)


def test_criterion_1_schedule_closed_forms():
    mp.mp.dps = 40
    rng = np.random.default_rng(101)
    draws = []
    for family in Family:
        for _ in range(1000):
            spec = random_spec(rng, family=family)
            step = float(rng.uniform(0.0, 5.0) ** 6)  # dense near 0, up to ~15k
            draws.append((spec, step))

    t0 = time.time()
    values = [eval_schedule(spec, step) for spec, step in draws]
    elapsed = time.time() - t0

    worst = 0.0
    for (spec, step), got in zip(draws, values):
        assert 0.0 <= got <= 1.0
        worst = max(worst, abs(got - mpmath_golden(spec, step)))
    # decay/increase monotonicity on the parametric families
    for (spec, step), got in zip(draws, values):
        if spec.family is Family.EMPIRICAL:
            continue
        later = eval_schedule(spec, step + float(rng.uniform(0.1, 100.0)))
        if spec.direction is Direction.DECAY:
            assert later <= got + 1e-12
        else:
            assert later >= got - 1e-12
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"6000 draws, max abs err {worst:.2e}, eval time {elapsed * 1000:.0f} ms")


def quad_accumulated(spec: ScheduleSpec, t: float) -> float:
    """Adaptive-quadrature oracle over an independently restated integrand."""
    if t == 0.0:
        return 0.0
    if spec.family is Family.EMPIRICAL:
        # the integrand is piecewise linear with kinks at the integers, so
        # a trapezoid over a grid that contains every kink is exact
        table = np.asarray(spec.empirical_table)
        knots = np.arange(0.0, len(table), dtype=float)
        xs = np.union1d(np.linspace(0.0, max(t, 1e-12), 257), knots[knots < t])
        xs = xs[xs <= max(t, 1e-12)]
        err = np.interp(np.minimum(xs, len(table) - 1), np.arange(len(table)), table)
        golden = np.clip(1.0 - err, 0.0, 1.0)
        if spec.direction is Direction.INCREASE:
            golden = 1.0 - golden
        return float(np.trapezoid(1.0 - golden, xs))
    if spec.family is Family.LINEAR:
        decay = lambda x: min(1.0, max(spec.epsilon, spec.k * x + spec.b))
        points = [p for p in ((1.0 - spec.b) / spec.k, (spec.epsilon - spec.b) / spec.k) if 0 < p < t]
    elif spec.family is Family.EXPONENTIAL:
        decay = lambda x: spec.k**x
        points = []
    elif spec.family is Family.SIGMOID:
        decay = lambda x: spec.k / (spec.k + math.exp(min(700.0, x / spec.k)))
        points = []
    elif spec.family is Family.UNIFORM:
        decay = lambda x: spec.uniform_p
        points = []
    else:
        decay = lambda x: 0.0
        points = []
    golden = decay if spec.direction is Direction.DECAY else (lambda x: 1.0 - decay(x))
    val, _ = quad(lambda x: 1.0 - golden(x), 0.0, t, points=sorted(points) or None, limit=300)
    return val


def test_criterion_2_accumulated_error_oracle():
    rng = np.random.default_rng(202)
    t_grid = [0.0, 0.5, 1.0, 3.7, 16.0, 64.0, 128.0, 300.0, 512.0]
    worst = 0.0
    checked = 0
    t0 = time.time()
    for family in Family:
        for _ in range(12):
            spec = random_spec(rng, family=family)
            for t in t_grid:
                got = accumulated_errors(spec, t)
                want = quad_accumulated(spec, t)
                err = abs(got - want) / max(abs(want), 1e-9)
                worst = max(worst, err)
                checked += 1
                assert got >= -1e-12 and got <= t + 1e-9
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(2, ok, f"{checked} integrals, worst rel err {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 3: gradient checks on the full micro model
# ---------------------------------------------------------------------------


def micro_setup():
    cfg = ModelConfig(
        vocab_size=11, hidden_size=8, filter_size=16, num_heads=2,
        num_encoder_layers=1, num_decoder_layers=1, dropout=0.0,
        label_smoothing=0.1, param_dtype="float64",
    )
    params = init_params(cfg, named_rng(303, "init"))
    batch = batch_of([([5, 6, 7, 8, 9], [10, 5, 6, 7]), ([7, 8], [9, 10, 5, 6])])
    return cfg, params, batch


def test_criterion_3_gradient_checks():
    t0 = time.time()
    cfg, params, batch = micro_setup()
    tensors = params.all_tensors()
    results = []

    with Tape() as tape:
        loss = teacher_forcing_loss(params, batch)
        tape.backward(loss)
    analytic = [grad_of(p).copy() for p in tensors]
    for p in tensors:
        p.grad = None
    numeric = numeric_grads(
        lambda: float(teacher_forcing_loss(params, batch).data),
        tensors, 1e-5,
    )
    results.append(("teacher_forcing", max_rel_error(analytic, numeric)))

    # blocked-prediction variant: the objective treats first-pass outputs
    # as constants, so the oracle differentiates the loss with the
    # prediction embeddings frozen at their unperturbed values
    from sslab.model import decode_step_logits, embed_targets, encode, source_state
    from sslab.sampler import first_pass_predictions, sample_selection_mask
    from sslab.tensor import constant, cross_entropy_label_smoothed, no_grad, select

    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.UNIFORM, uniform_p=0.5)
    )
    with no_grad():
        enc0 = encode(params, batch.source, batch.source_mask)
    source0 = source_state(params, enc0, batch.source_mask)
    pred0 = first_pass_predictions(params, batch, source0).data.copy()
    mask, _ = sample_selection_mask(
        sampler, 0, batch.size, batch.decoder_inputs().shape[1], named_rng(304, "mask")
    )
    assert mask[:, 1:].any() and not mask[:, 1:].all()  # a genuine mixture

    def frozen_prediction_loss():
        enc = encode(params, batch.source, batch.source_mask)
        golden = embed_targets(params, batch.decoder_inputs())
        mixed = select(mask[:, :, None], golden, constant(pred0))
        logits = decode_step_logits(params, source_state(params, enc, batch.source_mask), mixed)
        return cross_entropy_label_smoothed(
            logits, batch.labels(), cfg.label_smoothing, batch.label_mask()
        )

    def live_two_pass():
        value, _, _ = two_pass_loss(
            params, sampler, batch, 0, None, None, named_rng(304, "mask")
        )
        return value

    with Tape() as tape:
        loss = live_two_pass()
        tape.backward(loss)
    analytic = [grad_of(p).copy() for p in tensors]
    for p in tensors:
        p.grad = None
    assert float(loss.data) == float(frozen_prediction_loss().data)
    numeric = numeric_grads(lambda: float(frozen_prediction_loss().data), tensors, 1e-5)
    results.append(("two_pass(blocked preds)", max_rel_error(analytic, numeric)))

    elapsed = time.time() - t0
    worst = max(err for _, err in results)
    detail = ", ".join(f"{name} {err:.2e}" for name, err in results)
    ok = worst <= 1e-4 and elapsed < 120.0
    report(3, ok, f"{detail}; {elapsed:.0f} s")


def test_criterion_4_degenerate_equivalence_bitwise():
    cfg = ModelConfig(
        vocab_size=14, hidden_size=16, filter_size=32, num_heads=2,
        num_encoder_layers=1, num_decoder_layers=1, dropout=0.1,
        label_smoothing=0.1, param_dtype="float64",
    )
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS, schedule=ScheduleSpec(Family.UNIFORM, uniform_p=1.0)
    )
    data_rng = np.random.default_rng(404)
    t0 = time.time()
    for trial in range(100):
        params = init_params(cfg, named_rng(4000 + trial, "init"))
        pairs = [
            (
                data_rng.integers(5, 14, size=data_rng.integers(2, 7)).tolist(),
                data_rng.integers(5, 14, size=data_rng.integers(2, 7)).tolist(),
            )
            for _ in range(3)
        ]
        batch = batch_of(pairs)
        seed = 9000 + trial

        with Tape() as tape:
            tf_loss = teacher_forcing_loss(
                params, batch,
                named_rng(seed, "dropout", "encoder", 0),
                named_rng(seed, "dropout", "decoder", 0),
            )
            tape.backward(tf_loss)
        tf_grads = [grad_of(p).copy() for p in params.all_tensors()]
        for p in params.all_tensors():
            p.grad = None

        with Tape() as tape:
            tp_loss, _, _ = two_pass_loss(
                params, sampler, batch, 0,
                named_rng(seed, "dropout", "encoder", 0),
                named_rng(seed, "dropout", "decoder", 0),
                named_rng(seed, "sampler", 0),
            )
            tape.backward(tp_loss)
        tp_grads = [grad_of(p).copy() for p in params.all_tensors()]
        for p in params.all_tensors():
            p.grad = None

        assert float(tf_loss.data) == float(tp_loss.data), f"loss mismatch at trial {trial}"
        for a, b in zip(tf_grads, tp_grads):
            assert a.tobytes() == b.tobytes(), f"grad mismatch at trial {trial}"
    report(4, True, f"100 batches bit-identical (loss and grads); {time.time() - t0:.0f} s")


def test_criterion_5_mask_statistics():
    rng = np.random.default_rng(505)
    n_draws = 100_000
    n_positions = 11
    checked = 0
    worst_sigma = 0.0
    methods = [JointMethod.PRODUCT, JointMethod.ARITHMETIC_MEAN, JointMethod.COMPOSITE]
    for case in range(20):
        if case % 3 == 2:
            joint = JointSpec(
                method=methods[int(rng.integers(0, len(methods)))],
                f=random_spec(rng, family=Family.SIGMOID),
                g=random_spec(rng, family=Family.EXPONENTIAL),
            )
            sampler = SamplerConfig(mode=SamplingMode.JOINT, joint=joint)
        elif case % 3 == 1:
            sampler = SamplerConfig(mode=SamplingMode.TRAINING_STEPS, schedule=random_spec(rng))
        else:
            sampler = SamplerConfig(mode=SamplingMode.DECODING_STEPS, schedule=random_spec(rng))
        train_step = int(rng.integers(0, 2000))
        mask, p = sample_selection_mask(
            sampler, train_step, n_draws, n_positions, named_rng(506, "mask", case)
        )
        for j in range(1, n_positions):
            want = golden_probability(sampler, train_step, j - 1)
            assert p[j] == want
            got = mask[:, j].mean()
            sigma = math.sqrt(want * (1.0 - want) / n_draws)
            if sigma == 0.0:
                assert got == want
            else:
                dev = abs(got - want) / sigma
                worst_sigma = max(worst_sigma, dev)
                assert dev <= 3.0, f"case {case} position {j}: {dev:.2f} sigma"
            checked += 1
    report(5, True, f"20 schedules x {n_positions - 1} steps, worst deviation {worst_sigma:.2f} sigma")


# ---------------------------------------------------------------------------
# criterion 6: beam search vs exhaustive enumeration
# ---------------------------------------------------------------------------


class PrefixTableScorer:
    """Deterministic random next-token distribution per prefix."""

    def __init__(self, seed: int, vocab: int):
        self.seed = seed
        self.vocab = vocab
        self.cache: dict[tuple, np.ndarray] = {}

    def row(self, prefix: tuple) -> np.ndarray:
        if prefix not in self.cache:
            r = np.random.default_rng((self.seed, len(prefix)) + prefix)
            logits = r.normal(size=self.vocab)
            s = logits - logits.max()
            self.cache[prefix] = s - np.log(np.exp(s).sum())
        return self.cache[prefix]

    def __call__(self, prefixes: np.ndarray) -> np.ndarray:
        return np.stack([self.row(tuple(p.tolist())) for p in prefixes])


def exhaustive_best(step, vocab, cfg, bos=BOS_ID):
    non_eos = [v for v in range(vocab) if v != EOS_ID]
    best_tokens, best_pen = None, -np.inf
    for k in range(cfg.max_length):
        for combo in product(non_eos, repeat=k):
            total, prefix = 0.0, [bos]
            for tok in [*combo, EOS_ID]:
                total += step(np.array([prefix]))[0][tok]
                prefix.append(tok)
            pen = total / length_penalty(k + 1, cfg.length_penalty)
            if pen > best_pen:
                best_tokens, best_pen = list(combo), pen
    return best_tokens, best_pen


def test_criterion_6_beam_oracle():
    # (vocab - 1) ** (max_length - 1) beams prune nothing, so the search must find the optimum
    # (up to its stop rule; see test_decode.py); at width vocab it must match its own definition
    t0 = time.time()
    for seed in range(200):
        vocab = 4 + seed % 2
        cfg = DecodeConfig(beam_size=(vocab - 1) ** 2, length_penalty=0.6, max_length=3)
        scorer = PrefixTableScorer(seed, vocab)
        got = beam_search(lambda p, r, _: scorer(p), vocab, cfg)[0]
        want_tokens, want_pen = exhaustive_best(scorer, vocab, cfg)
        assert got.finished, f"model {seed} returned unfinished"
        assert got.tokens == want_tokens, f"model {seed}: {got.tokens} != {want_tokens}"
        assert abs(got.score - want_pen) <= 1e-9, f"model {seed}: score mismatch"
        narrow = replace(cfg, beam_size=vocab)
        want = reference_beam_search(lambda p, r, _: scorer(p), vocab, narrow)
        assert beam_search(lambda p, r, _: scorer(p), vocab, narrow) == want, f"model {seed} at width {vocab}"
    report(6, True, f"200 random models match exhaustive enumeration, and their width-vocab searches the reference; "
                    f"{time.time() - t0:.0f} s")


def test_criterion_10_metrics_self_consistency():
    rng = np.random.default_rng(1010)
    for case in range(1000):
        n_pairs = int(rng.integers(1, 8))
        hyps, refs = [], []
        for _ in range(n_pairs):
            hyps.append(rng.integers(5, 14, size=rng.integers(1, 9)).tolist())
            refs.append(rng.integers(5, 14, size=rng.integers(1, 9)).tolist())
        strict = strict_precision_per_step(hyps, refs)
        w1 = fuzzy_precision_per_step(hyps, refs, window=1)
        assert strict.steps == w1.steps and strict.values == w1.values, f"case {case}"
        w3 = fuzzy_precision_per_step(hyps, refs, window=3)
        for s, f in zip(strict.values, w3.values):
            assert f >= s, f"case {case}: fuzzy below strict"
    report(10, True, "1000 corpora: window=1 == strict exactly; window=3 dominates pointwise")
