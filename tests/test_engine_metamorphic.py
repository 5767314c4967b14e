"""Metamorphic test of the engine: scaling every duration by a power of
two scales every start and finish by exactly that factor.

Power-of-two scaling is exact in IEEE arithmetic as long as the values
stay normal, and the engine combines times only with ``+``, ``max`` and
comparisons, which all commute with it.  The relation therefore holds
bit for bit, with and without a memory ledger (capacities are bytes, not
times), without knowing which order the loop schedules ops in.  It
catches what equality with the seed engine cannot: a duration floor or
an absolute time constant inside the loop.
"""

from dataclasses import replace

from hypothesis import assume, given, settings

from repro.sim import SimulationDeadlock, simulate
from tests.test_engine_differential import op_dags

#: k in 2**k; op_dags draws durations up to 3.0 and at most 40 ops, so
#: every scaled time stays far below overflow.
SCALES = range(-8, 9)

#: Smallest nonzero duration whose scaling by 2**-8 stays normal (and so
#: exact): below it, scaling down drops mantissa bits.
MIN_EXACT = 2.0 ** -1000


def _times(ops, capacity):
    try:
        result = simulate(ops, capacity)
    except SimulationDeadlock:
        return None
    return [(t.start, t.finish) for _, t in sorted(result.timings.items())]


class TestPowerOfTwoScaling:
    @given(op_dags())
    @settings(deadline=None)
    def test_times_scale_exactly(self, case):
        ops, capacity = case
        assume(all(op.duration == 0.0 or op.duration >= MIN_EXACT
                   for op in ops))
        for ledger in {capacity, None}:
            base = _times(ops, ledger)
            for k in SCALES:
                f = 2.0 ** k
                scaled = _times(
                    [replace(op, duration=op.duration * f) for op in ops],
                    ledger)
                if base is None:
                    assert scaled is None, (k, ledger)
                    continue
                assert scaled == [(s * f, e * f) for s, e in base], \
                    (k, ledger)
