"""The one-pass ``solve_dp`` against two oracles.

* ``reference_solve_dp`` (``tests/_reference_dp.py``), the FIFO
  label-correcting queue the sweep replaced.  Under downward-closed
  feasibility (if ``[a, c)`` fits, so does every sub-interval) the two
  must return the same boundary list and raise together.  Under
  arbitrary feasibility ties may break differently, so only the
  surrogate objective must match.
* Brute-force enumeration of every contiguous partition for ``u <= 10``:
  on integer-valued costs the sweep's objective is the true minimum, and
  it raises exactly when no partition exists.

Costs come from a seeded table: small integers make exact ties common,
and ``1e-3 + k * 2.2e-19`` puts candidate sums a few ulps apart, where
the DP's ``1e-18`` tolerance decides.  The pinned ``@example`` cases are
shrunk counterexamples for three broken sweeps (no tolerance, folding
starts in decreasing order, taking the last minimum at the end).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Callable, List, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.blocking import BlockingInputs, build_inputs, make_problem
from repro.core.solver import PartitionProblem, solve_dp
from tests._reference_dp import reference_solve_dp

SPANS = (1, 2, 3, 8, 64)


def toy_problem(u: int, max_span: int, kind: str, seed: int, fill: int,
                first: bool, downward_closed: bool) -> PartitionProblem:
    """A table-driven problem; ``fill`` (0-100) moves the memory budget
    from nothing fits to everything fits."""
    rng = random.Random(seed)

    def value() -> float:
        if kind == "ties":
            return float(rng.randint(0, 3))
        return 1e-3 + rng.randint(-4, 4) * 2.2e-19

    pair = {(a, b, c): value()
            for a in range(u) for b in range(a + 1, min(u, a + max_span) + 1)
            for c in range(b + 1, min(u, b + max_span) + 1)}
    first_cost = {b: value() if first else 0.0 for b in range(1, u + 1)}
    if downward_closed:
        weights = [rng.randint(1, 4) for _ in range(u)]
        ledger = sum(weights) * fill // 100

        def feasible(a: int, b: int) -> bool:
            return sum(weights[a:b]) <= ledger
    else:
        mask = {(a, b): rng.randrange(100) < fill
                for a in range(u) for b in range(a + 1, u + 1)}

        def feasible(a: int, b: int) -> bool:
            return mask[(a, b)]

    return PartitionProblem(
        num_segments=u, pair_cost=lambda a, b, c: pair[(a, b, c)],
        block_feasible=feasible, first_cost=lambda a, b: first_cost[b],
        max_span=max_span)


def objective(problem: PartitionProblem, bounds: List[int]) -> float:
    """The surrogate, summed left to right as the DP accumulates it."""
    total = problem.first_cost(0, bounds[0])
    for a, b, c in zip([0] + bounds, bounds, bounds[1:]):
        total = total + problem.pair_cost(a, b, c)
    return total


def outcome(solve: Callable[[PartitionProblem], List[int]],
            problem: PartitionProblem) -> Optional[List[int]]:
    """Boundaries, or ``None`` when the solver finds no partition."""
    try:
        return solve(problem)
    except ValueError:
        return None


toy_args = dict(u=st.integers(1, 14), max_span=st.sampled_from(SPANS),
                kind=st.sampled_from(("ties", "ulps")),
                seed=st.integers(0, 2 ** 32 - 1), fill=st.integers(0, 100),
                first=st.booleans())


class TestAgainstQueue:
    @settings(max_examples=400)
    @given(**toy_args)
    # no tolerance: takes a few-ulp "improvement" the queue turns down
    @example(u=4, max_span=3, kind="ulps", seed=1, fill=50, first=False)
    # starts folded in decreasing order: a later start wins a tie
    @example(u=3, max_span=2, kind="ties", seed=14, fill=50, first=False)
    # last minimum among the final states
    @example(u=2, max_span=2, kind="ties", seed=2, fill=100, first=False)
    def test_same_boundaries_when_downward_closed(self, **args):
        problem = toy_problem(**args, downward_closed=True)
        assert outcome(solve_dp, problem) == \
            outcome(reference_solve_dp, problem)

    @settings(max_examples=400)
    @given(**toy_args)
    # the queue's label order keeps a different near-tie: 1 ulp apart
    @example(u=10, max_span=3, kind="ulps", seed=2721019811, fill=73,
             first=False)
    def test_same_objective_under_any_feasibility(self, **args):
        problem = toy_problem(**args, downward_closed=False)
        got = outcome(solve_dp, problem)
        want = outcome(reference_solve_dp, problem)
        assert (got is None) == (want is None)
        if got is None:
            return
        if args["kind"] == "ties":
            assert objective(problem, got) == objective(problem, want)
        else:
            # which of two sums within the tolerance survives depends on
            # the order labels arrive in, so the totals may part by the
            # tolerance once per block
            assert abs(objective(problem, got) - objective(problem, want)) \
                <= problem.num_segments * 1e-18


def blocking_inputs(u: int, seed: int, fill: int,
                    throughput: float) -> BlockingInputs:
    """Small-integer segment costs, so pair costs tie often."""
    rng = random.Random(seed)
    stash = [rng.randint(1, 6) for _ in range(u)]
    return BlockingInputs(
        segments=[(i, i + 1) for i in range(u)],
        seg_fw=np.array([float(rng.randint(0, 4)) for _ in range(u)]),
        seg_bw=np.array([float(rng.randint(0, 8)) for _ in range(u)]),
        seg_stash=np.array(stash, dtype=np.int64),
        seg_weights=np.zeros(u, dtype=np.int64),
        ledger_capacity=2 * sum(stash) * fill // 100,
        swap_throughput=throughput)


def stripped(problem: PartitionProblem) -> PartitionProblem:
    return dataclasses.replace(problem, feasible_ends=None, step_costs=None)


class TestArrayHooks:
    @settings(max_examples=200)
    @given(u=st.integers(1, 24), max_span=st.sampled_from(SPANS),
           seed=st.integers(0, 2 ** 32 - 1), fill=st.integers(0, 100),
           throughput=st.sampled_from((1.0, 3.0, 0.7)))
    def test_hooks_match_scalar_path_and_queue(self, u, max_span, seed,
                                               fill, throughput):
        problem = make_problem(blocking_inputs(u, seed, fill, throughput),
                               max_span=max_span)
        got = outcome(solve_dp, problem)
        assert got == outcome(solve_dp, stripped(problem))
        assert got == outcome(reference_solve_dp, problem)

    @pytest.mark.parametrize("batch", [256, 512])
    def test_registry_instance(self, platform, batch):
        from repro.costs import profile_graph
        from repro.models.registry import build

        device, _, transfer = platform
        graph = build("resnet50")
        inputs = build_inputs(graph, profile_graph(graph, device, transfer,
                                                   batch),
                              device.usable_memory)
        problem = make_problem(inputs)
        got = solve_dp(problem)
        assert got == solve_dp(stripped(problem))
        assert got == reference_solve_dp(problem)


def legal(problem: PartitionProblem, bounds: List[int]) -> bool:
    return all(b - a <= problem.max_span and problem.block_feasible(a, b)
               for a, b in zip([0] + bounds, bounds))


def brute_force(problem: PartitionProblem) -> Optional[float]:
    """Minimum surrogate over every feasible contiguous partition."""
    u = problem.num_segments
    values = [objective(problem, bounds)
              for k in range(u)
              for bounds in ([*inner, u] for inner in
                             itertools.combinations(range(1, u), k))
              if legal(problem, bounds)]
    return min(values, default=None)


class TestAgainstBruteForce:
    @settings(max_examples=300)
    @given(u=st.integers(1, 10), max_span=st.sampled_from(SPANS),
           seed=st.integers(0, 2 ** 32 - 1), fill=st.integers(0, 100),
           first=st.booleans(), downward_closed=st.booleans())
    def test_optimal_on_integer_costs(self, **args):
        problem = toy_problem(**args, kind="ties")
        best = brute_force(problem)
        got = outcome(solve_dp, problem)
        if best is None:
            assert got is None
        else:
            assert got is not None
            assert got[-1] == problem.num_segments and legal(problem, got)
            assert objective(problem, got) == best
