"""Pin the numpy fact the ITLB draws rely on.

The engine draws the ITLB misses of all ``k`` chunks of an activity with
one ``Generator.binomial(pages, rate, size=k)`` call, where the
per-chunk path made ``k`` scalar ``binomial(pages, rate)`` calls.  The
two are the same only if numpy draws an array of binomials one value at
a time from the same stream.  numpy does not document that, so this
test holds the installed numpy to it: a release that changes it fails
here, before any simulator golden moves.
"""

import numpy as np
from hypothesis import given, settings, strategies as st


@given(
    seed=st.integers(0, 2**32 - 1),
    pages=st.integers(1, 64),
    rate=st.floats(0.0, 0.95),
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_binomial_array_equals_scalar_draws(seed, pages, rate, sizes):
    batched = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    for k in sizes:
        values = batched.binomial(pages, rate, size=k).tolist()
        assert values == [int(scalar.binomial(pages, rate)) for _ in range(k)]
        assert batched.bit_generator.state == scalar.bit_generator.state
