"""Span self times and the hook installer."""

from __future__ import annotations

from benchmarks.e2e.trace import (
    HOOKS,
    Hook,
    Tracer,
    _owner_and_attr,
    installed,
    silent_hooks,
)


def test_self_time_on_hand_built_span_tree():
    # op [0,10] > a [1,5] > a1 [2,3]
    # op > b (hot) [6,8] > c [6.5,7.5];  op > b (hot) [8.5,9]
    clock = iter([0, 1, 2, 3, 5, 6, 6.5, 7.5, 8, 8.5, 9, 10]).__next__
    t = Tracer(clock)
    t.begin_op(0)
    t.enter("a")
    t.enter("a1")
    t.exit()
    t.exit()
    t.enter("b", hot=True)
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b", hot=True)
    t.exit()
    t.end_op()

    layers = t.layers[0]
    assert layers["op"] == [1, 3.5]
    assert layers["a"] == [1, 3.0]
    assert layers["a1"] == [1, 1.0]
    assert layers["b"] == [2, 1.5]
    assert layers["c"] == [1, 1.0]
    # Self times partition the op's wall time.
    assert sum(s for _, s in layers.values()) == 10
    # Hot spans are rolled up under their nearest kept ancestor (the op),
    # which is also the recorded parent of the kept span inside them.
    by_name = {s[1]: s for s in t.spans}
    assert by_name["a1"][4] == by_name["a"][0]
    assert by_name["a"][4] == by_name["op"][0] == by_name["c"][4]
    assert t.rollups == {(by_name["op"][0], "b"): [2, 2.5]}


class Dummy:
    def work(self, n):
        return list(range(n))

    @classmethod
    def make(cls):
        return cls()

    def steps(self):
        yield from (1, 2, 3)


def test_installed_wraps_each_kind_and_restores():
    hooks = (
        Hook(f"{__name__}:Dummy.work", "d.work", sized="d.items", on=("w",)),
        Hook(f"{__name__}:Dummy.make", "d.makes", "count", on=("w",)),
        Hook(f"{__name__}:Dummy.steps", "d.step", "hot", iterate=True,
             on=("w",)),
    )
    before = dict(vars(Dummy))
    t = Tracer()
    with installed(t, hooks):
        t.begin_op(0)
        d = Dummy.make()
        assert d.work(4) == [0, 1, 2, 3]
        assert list(d.steps()) == [1, 2, 3]
        t.end_op()
    assert dict(vars(Dummy)) == before

    layers = t.layers[0]
    assert layers["d.work"][0] == 1
    assert layers["d.items"][0] == 4
    assert layers["d.makes"][0] == 1
    assert layers["d.step"][0] == 4  # three items and the final StopIteration
    assert silent_hooks("w", t.layers, hooks) == []
    assert silent_hooks("w", {0: {}}, hooks) == ["d.makes", "d.step", "d.work"]


def test_every_hook_target_exists():
    for hook in HOOKS:
        _owner_and_attr(hook.target)
