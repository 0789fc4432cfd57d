"""Self-time arithmetic, patching and the percentile rule."""

import types

import pytest

from spans import Tracer, rebind, restore, tail_percentile, traced


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    tracer = Tracer(clock=FakeClock(0, 1, 4, 5, 6, 8, 9, 10))
    outer = tracer.enter("outer")
    a = tracer.enter("a")
    tracer.exit(a)
    b = tracer.enter("b")
    c = tracer.enter("c")
    tracer.exit(c)
    tracer.exit(b)
    tracer.exit(outer)
    stats = tracer.summarize()
    assert stats["outer"].self_s == pytest.approx(10 - 3 - 4)
    assert stats["outer"].inclusive_s == pytest.approx(10)
    assert stats["a"].self_s == pytest.approx(3)
    assert stats["b"].self_s == pytest.approx(4 - 2)
    assert stats["c"].self_s == pytest.approx(2)
    assert list(tracer.parent) == [-1, 0, 0, 2]
    # self times partition the root's duration
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10)


def test_traced_closes_span_on_exception():
    tracer = Tracer(clock=FakeClock(0, 1))

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        traced(tracer, "boom", boom)()
    assert tracer.summarize()["boom"].calls == 1
    assert not tracer.is_open("boom")


def test_rebind_patches_every_alias_and_restores():
    def f():
        return 1

    home = types.SimpleNamespace(f=f)
    user = types.SimpleNamespace(g=f, other=len)
    undo = rebind([home, user], f, lambda: 2)
    assert home.f() == 2 and user.g() == 2 and user.other is len
    restore(undo)
    assert home.f is f and user.g is f


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # the median needs ten samples above it
        (20, "50"),
        (99, "50"),
        (100, "90"),
        (999, "90"),
        (1000, "99"),
        (10000, "99.9"),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    result = tail_percentile([float(i) for i in range(n)])
    if expected is None:
        assert result is None
        return
    pct, value, count = result
    assert (pct, count) == (expected, n)
    # nearest rank: at least pct% of the samples are <= the value
    assert sum(1 for i in range(n) if i > value) >= 10


def test_tail_percentile_value_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20  # 100 samples, 20 of each
    assert tail_percentile(samples) == ("90", 5.0, 100)
