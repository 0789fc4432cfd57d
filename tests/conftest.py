import pytest

from sslab.data import TaskKind, batch_stream, gen_task
from sslab.model import ModelConfig, init_params
from sslab.rng import named_rng
from sslab.sampler import OptimizerConfig, SamplerConfig, SamplingMode, train
from sslab.schedules import Family, ScheduleSpec


@pytest.fixture(scope="session")
def trained_copy_model():
    """A small copy-task model converged enough for decoding tests."""
    cfg = ModelConfig(
        vocab_size=15,
        hidden_size=32,
        filter_size=64,
        num_heads=4,
        num_encoder_layers=1,
        num_decoder_layers=1,
        dropout=0.0,
        label_smoothing=0.1,
    )
    corpus = gen_task(TaskKind.COPY, cfg.vocab_size, 3, 6, 400, seed=41)
    params = init_params(cfg, named_rng(42, "init"))
    sampler = SamplerConfig(
        mode=SamplingMode.DECODING_STEPS,
        schedule=ScheduleSpec(Family.UNIFORM, uniform_p=1.0),
        warm_start_steps=10_000,
    )
    train(
        params,
        sampler,
        batch_stream(corpus, token_budget=1024, seed=43),
        OptimizerConfig(warmup_steps=100),
        total_steps=700,
        root_seed=44,
    )
    return params, cfg
