"""Elastic fault tolerance: traces, recovery control, hardened
checkpoints, churn scenarios, and service chaos mode."""

import json
import threading
import time

import numpy as np
import pytest

from repro.core import BlockPolicy, make_plan
from repro.costs.profiler import profile_graph
from repro.distributed.cpu_update import HostAdam, HostSGD
from repro.distributed.dp_trainer import DataParallelKarmaTrainer
from repro.elastic import (
    ChaosMonkey,
    ChurnScenario,
    DegradeFailed,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultTrace,
    RecoveryController,
    RecoveryImpossible,
    RecoveryPolicy,
    ReplanFailed,
    ScenarioConfig,
    demote_plan,
    simulate_churn,
    synthetic_trace,
)
from repro.elastic.scenario import divisor_worlds
from repro.hardware import GiB, tiny_test_hierarchy
from repro.nn import ExecutableModel
from repro.runtime.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    checkpoint_digest,
    load_checkpoint_full,
    save_checkpoint,
)

from tests.helpers import build_small_cnn, uniform_blocks as blocks_of

S, R, C = BlockPolicy.SWAPPED, BlockPolicy.RESIDENT, BlockPolicy.RECOMPUTED


# --------------------------------------------------------------------------
# fault traces
# --------------------------------------------------------------------------

class TestFaultTraces:
    def test_synthetic_trace_deterministic(self):
        a = synthetic_trace(7, steps=20, world=4, preemptions=2, joins=1)
        b = synthetic_trace(7, steps=20, world=4, preemptions=2, joins=1)
        assert a.events == b.events
        c = synthetic_trace(0, steps=20, world=4, preemptions=2, joins=1)
        assert a.events != c.events

    def test_synthetic_trace_counts_and_legality(self):
        t = synthetic_trace(0, steps=30, world=3, preemptions=2, joins=2,
                            slowdowns=1)
        assert t.preemptions == 2 and t.joins == 2
        assert sum(1 for e in t if e.kind is FaultKind.SLOWDOWN) == 1
        t.validate(3)   # never drops below one worker

    def test_allowed_worlds_respected(self):
        worlds = divisor_worlds(12)
        assert worlds == (1, 2, 3, 4, 6, 12)
        t = synthetic_trace(5, steps=20, world=4, preemptions=3, joins=2,
                            allowed_worlds=worlds)
        fleet = 4
        for e in t:
            if e.kind is FaultKind.PREEMPT:
                fleet -= e.nodes
            elif e.kind is FaultKind.JOIN:
                fleet += e.nodes
            assert fleet in worlds

    def test_trace_json_roundtrip(self, tmp_path):
        t = synthetic_trace(1, steps=15, world=4, preemptions=2, joins=1,
                            slowdowns=1, dirty_rate=1.0)
        path = t.to_json(tmp_path / "trace.json")
        back = FaultTrace.from_json(path)
        assert back.events == t.events
        # dirty flag survives the round-trip
        assert any(e.dirty for e in back)

    def test_trace_validation_rejects_dead_fleet(self):
        t = FaultTrace.from_events([
            FaultEvent(step=1, kind=FaultKind.PREEMPT),
            FaultEvent(step=2, kind=FaultKind.PREEMPT)])
        with pytest.raises(ValueError, match="at least one survivor"):
            t.validate(2)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(step=-1, kind=FaultKind.PREEMPT)
        with pytest.raises(ValueError):
            FaultEvent(step=1, kind=FaultKind.JOIN, dirty=True)
        with pytest.raises(ValueError):
            FaultEvent(step=1, kind=FaultKind.SLOWDOWN, factor=0.5)

    def test_injector_delivers_each_event_once(self):
        t = FaultTrace.from_events([
            FaultEvent(step=2, kind=FaultKind.PREEMPT),
            FaultEvent(step=5, kind=FaultKind.JOIN)])
        inj = FaultInjector(t)
        assert inj.poll(0) == []
        fired = inj.poll(2)
        assert [e.kind for e in fired] == [FaultKind.PREEMPT]
        assert inj.poll(2) == []
        # a loop that jumped past step 5 still sees the join, once
        fired = inj.poll(9)
        assert [e.kind for e in fired] == [FaultKind.JOIN]
        assert inj.exhausted


# --------------------------------------------------------------------------
# recovery controller
# --------------------------------------------------------------------------

def _stub_controller(policy=None, *, replan_fails=0, degrade_fails=0,
                     restart_fails=0, have_checkpoint=True, seed=0):
    """A controller over counting stub actions; returns (ctl, calls)."""
    calls = {"resize": [], "replan": 0, "degrade": 0, "restart": 0,
             "sleeps": []}
    fails = {"replan": replan_fails, "degrade": degrade_fails,
             "restart": restart_fails}

    def action(name, result=None):
        def run(world):
            calls[name] += 1
            if fails[name]:
                fails[name] -= 1
                raise RuntimeError(f"{name} transient failure")
            return result
        return run

    ctl = RecoveryController(
        policy or RecoveryPolicy(max_attempts=3, backoff_base_s=0.01,
                                 backoff_jitter=0.0),
        resize=lambda w: calls["resize"].append(w),
        replan=action("replan"),
        degrade=action("degrade"),
        restart=action("restart", result=4),
        have_checkpoint=lambda: have_checkpoint,
        sleep=lambda s: calls["sleeps"].append(s),
        clock=time.perf_counter, seed=seed)
    return ctl, calls


class TestRecoveryPolicy:
    def test_decision_table(self):
        p = RecoveryPolicy()
        clean = FaultEvent(step=1, kind=FaultKind.PREEMPT)
        dirty = FaultEvent(step=1, kind=FaultKind.PREEMPT, dirty=True)
        join = FaultEvent(step=1, kind=FaultKind.JOIN)
        slow = FaultEvent(step=1, kind=FaultKind.SLOWDOWN, factor=3.0)
        mild = FaultEvent(step=1, kind=FaultKind.SLOWDOWN, factor=1.2)
        kw = dict(survivors=3, est_replan_s=None, have_checkpoint=True)
        assert p.decide(clean, **kw) == "replan"
        assert p.decide(dirty, **kw) == "restart"
        assert p.decide(join, **kw) == "replan"
        assert p.decide(slow, **kw) == "degrade"
        assert p.decide(mild, **kw) == "ignore"

    def test_expensive_replan_degrades(self):
        p = RecoveryPolicy(replan_budget_s=1.0)
        clean = FaultEvent(step=1, kind=FaultKind.PREEMPT)
        assert p.decide(clean, survivors=3, est_replan_s=5.0,
                        have_checkpoint=True) == "degrade"
        assert p.decide(clean, survivors=3, est_replan_s=0.5,
                        have_checkpoint=True) == "replan"

    def test_below_min_world_restarts(self):
        p = RecoveryPolicy(min_world=2)
        clean = FaultEvent(step=1, kind=FaultKind.PREEMPT)
        assert p.decide(clean, survivors=1, est_replan_s=None,
                        have_checkpoint=True) == "restart"

    def test_forced_modes(self):
        clean = FaultEvent(step=1, kind=FaultKind.PREEMPT)
        kw = dict(survivors=3, est_replan_s=None, have_checkpoint=True)
        assert RecoveryPolicy(mode="degrade").decide(clean, **kw) \
            == "degrade"
        assert RecoveryPolicy(mode="replan").decide(clean, **kw) \
            == "replan"
        with pytest.raises(ValueError):
            RecoveryPolicy(mode="panic")


class TestRecoveryController:
    def test_clean_preempt_resizes_then_replans(self):
        ctl, calls = _stub_controller()
        ev = FaultEvent(step=3, kind=FaultKind.PREEMPT)
        report = ctl.recover(ev, world=4, step=3)
        assert calls["resize"] == [3]
        assert calls["replan"] == 1 and calls["restart"] == 0
        assert report.decision == "replan"
        assert report.world_before == 4 and report.world_after == 3
        assert report.lost_steps == 0

    def test_retry_with_backoff_then_success(self):
        ctl, calls = _stub_controller(replan_fails=2)
        ev = FaultEvent(step=1, kind=FaultKind.JOIN)
        report = ctl.recover(ev, world=2, step=1)
        assert report.decision == "replan"
        assert report.attempts == 3
        assert calls["replan"] == 3
        # exponential: each delay strictly larger (jitter zeroed)
        assert len(calls["sleeps"]) == 2
        assert calls["sleeps"][1] > calls["sleeps"][0]

    def test_replan_exhausted_falls_back_to_degrade(self):
        ctl, calls = _stub_controller(replan_fails=99)
        ev = FaultEvent(step=1, kind=FaultKind.PREEMPT)
        report = ctl.recover(ev, world=4, step=1)
        assert report.decision == "degrade"
        assert report.tried == ["replan", "degrade"]
        assert calls["replan"] == 3 and calls["degrade"] == 1

    def test_full_cascade_lands_on_restart(self):
        ctl, calls = _stub_controller(replan_fails=99, degrade_fails=99)
        ev = FaultEvent(step=6, kind=FaultKind.PREEMPT)
        report = ctl.recover(ev, world=4, step=6)
        assert report.decision == "restart"
        assert report.tried == ["replan", "degrade", "restart"]
        assert report.resumed_step == 4 and report.lost_steps == 2

    def test_everything_failing_is_typed_impossible(self):
        ctl, _ = _stub_controller(replan_fails=99, degrade_fails=99,
                                  restart_fails=99)
        ev = FaultEvent(step=1, kind=FaultKind.PREEMPT)
        with pytest.raises(RecoveryImpossible):
            ctl.recover(ev, world=4, step=1)

    def test_dirty_without_checkpoint_is_impossible(self):
        ctl, calls = _stub_controller(have_checkpoint=False)
        ev = FaultEvent(step=1, kind=FaultKind.PREEMPT, dirty=True)
        with pytest.raises(RecoveryImpossible, match="no checkpoint"):
            ctl.recover(ev, world=4, step=1)
        assert calls["restart"] == 0

    def test_mild_slowdown_ignored(self):
        ctl, calls = _stub_controller()
        ev = FaultEvent(step=1, kind=FaultKind.SLOWDOWN, factor=1.1)
        report = ctl.recover(ev, world=4, step=1)
        assert report.decision == "ignore"
        assert calls["resize"] == [] and calls["replan"] == 0

    def test_error_types_carry_codes(self):
        assert ReplanFailed.code == "replan_failed"
        assert DegradeFailed.code == "degrade_failed"
        assert RecoveryImpossible.code == "recovery_impossible"


class TestDemotePlan:
    def test_demotes_overflow_stashes_a_tier(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, batch_size=8)
        blocks = blocks_of(small_cnn, 4)
        policies = [S, S, S, R]
        plan = make_plan(small_cnn.name, 8, blocks, policies)
        assert all(t == 1 for t in plan.placements.values())
        from repro.tiering.placement import swapped_stash_bytes
        stash = swapped_stash_bytes(blocks, policies, cost)
        # DRAM sized so pressure=0.5 must push the coldest stash down
        hier = tiny_test_hierarchy(
            hbm=4 * (1 << 20), dram=int(sum(stash.values()) / 0.9) + 1,
            nvme=64 * (1 << 20))
        demoted = demote_plan(plan, cost, hier, pressure=0.5)
        assert demoted.blocks == plan.blocks
        assert demoted.policies == plan.policies
        assert max(demoted.placements.values()) == 2
        demoted.validate()

    def test_infeasible_degrade_is_typed(self, small_cnn, platform):
        device, _, transfer = platform
        cost = profile_graph(small_cnn, device, transfer, batch_size=8)
        blocks = blocks_of(small_cnn, 4)
        plan = make_plan(small_cnn.name, 8, blocks, [S, S, S, R])
        hier = tiny_test_hierarchy(hbm=4 * (1 << 20), dram=16, nvme=16)
        with pytest.raises(DegradeFailed):
            demote_plan(plan, cost, hier)


# --------------------------------------------------------------------------
# hardened checkpoints
# --------------------------------------------------------------------------

class TestCheckpointHardening:
    def _model(self, name="ckpt_h", with_bn=True, seed=3):
        g = build_small_cnn(with_bn=with_bn, name=name)
        return g, ExecutableModel(g, dtype=np.float64, seed=seed)

    def test_digest_roundtrip_and_extras(self, tmp_path):
        g, m = self._model()
        extra = {"opt/conv/weight/momentum": np.full((2, 2), 0.5)}
        path = str(tmp_path / "a.npz")
        save_checkpoint(m, path, step=7, extra=extra)
        g2, m2 = self._model(seed=99)
        step, extras = load_checkpoint_full(m2, path)
        assert step == 7
        np.testing.assert_array_equal(
            extras["opt/conv/weight/momentum"], extra["opt/conv/weight/momentum"])
        for (ln, pn, a), (_, _, b) in zip(m.parameters(), m2.parameters()):
            assert np.array_equal(a, b), f"{ln}/{pn}"

    def test_bn_buffers_bit_identical(self, tmp_path):
        g, m = self._model(name="ckpt_bn")
        # give the BN running stats non-trivial values
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 16, 16))
        m.set_targets(rng.integers(0, 5, 4))
        m.forward(x, training=True)
        path = str(tmp_path / "bn.npz")
        save_checkpoint(m, path, step=1)
        _, m2 = self._model(name="ckpt_bn", seed=42)
        load_checkpoint_full(m2, path)
        for spec in g:
            src = m.modules[spec.name]
            dst = m2.modules[spec.name]
            for bname, arr in src.buffers.items():
                assert np.array_equal(arr, dst.buffers[bname]), \
                    f"{spec.name}/{bname}"

    def test_corrupt_file_rejected_before_mutation(self, tmp_path):
        g, m = self._model()
        path = str(tmp_path / "c.npz")
        save_checkpoint(m, path, step=3)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF   # flip one byte mid-archive
        open(path, "wb").write(bytes(raw))
        _, m2 = self._model(seed=11)
        before = [a.copy() for _, _, a in m2.parameters()]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint_full(m2, path)
        for (_, _, a), b in zip(m2.parameters(), before):
            assert np.array_equal(a, b)   # untouched on failure

    def test_truncated_file_rejected(self, tmp_path):
        g, m = self._model()
        path = str(tmp_path / "t.npz")
        save_checkpoint(m, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) // 3])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint_full(self._model(seed=5)[1], path)

    def test_digest_is_content_addressed(self):
        payload = {"a": np.arange(4), "b": np.ones((2, 2))}
        d1 = checkpoint_digest(payload)
        assert d1 == checkpoint_digest(dict(reversed(payload.items())))
        payload["a"] = payload["a"] + 1
        assert checkpoint_digest(payload) != d1

    def test_optimizer_state_roundtrips_through_extras(self, tmp_path):
        g, m = self._model(with_bn=False, name="ckpt_opt")
        sgd = HostSGD(lr=0.1, momentum=0.9)
        sgd.update_block(m, range(len(g)))   # materialize momentum slots
        path = str(tmp_path / "o.npz")
        save_checkpoint(m, path, step=2, extra=sgd.state_dict())
        _, extras = load_checkpoint_full(
            self._model(with_bn=False, name="ckpt_opt", seed=9)[1], path)
        sgd2 = HostSGD(lr=0.1, momentum=0.9)
        sgd2.load_state_dict(extras)
        assert sgd2.state_dict().keys() == sgd.state_dict().keys()
        for key, arr in sgd.state_dict().items():
            assert np.array_equal(arr, sgd2.state_dict()[key])

    def test_adam_state_dict_roundtrip(self):
        g, m = self._model(with_bn=False, name="ckpt_adam")
        adam = HostAdam(lr=1e-3)
        adam.begin_step()
        adam.update_block(m, range(len(g)))
        state = adam.state_dict()
        adam2 = HostAdam(lr=1e-3)
        adam2.load_state_dict(state)
        assert adam2.t == adam.t == 1
        for key, arr in adam2.state_dict().items():
            assert np.array_equal(arr, state[key])
        with pytest.raises(KeyError):
            adam2.load_state_dict({"x/y/unknown_slot": np.zeros(1)})


class TestCheckpointManager:
    def _model(self, seed=0):
        g = build_small_cnn(with_bn=False, name="ckpt_mgr")
        return ExecutableModel(g, dtype=np.float64, seed=seed)

    def test_periodic_interval_and_rotation(self, tmp_path):
        m = self._model()
        with CheckpointManager(str(tmp_path), interval=2, keep=2) as mgr:
            saved = [s for s in range(1, 8)
                     if mgr.maybe_save(m, s) is not None]
            mgr.wait()
        assert saved == [2, 4, 6]
        names = sorted(p.name for p in tmp_path.glob("ckpt_*.npz"))
        assert names == ["ckpt_00000004.npz", "ckpt_00000006.npz"]
        assert mgr.last_good is not None and mgr.last_good[0] == 6

    def test_restore_latest_resumes_at_step(self, tmp_path):
        m = self._model()
        with CheckpointManager(str(tmp_path), interval=3) as mgr:
            for s in range(1, 10):
                for _, _, arr in m.parameters():
                    arr += 0.001    # training mutates weights
                mgr.maybe_save(m, s)
            mgr.wait()
            expect = [a.copy() for _, _, a in m.parameters()]
            # mid-epoch kill: a fresh process restores the newest archive
            m2 = self._model(seed=77)
            step, _ = mgr.restore_latest(m2)
        assert step == 9
        for (_, _, a), b in zip(m2.parameters(), expect):
            assert np.array_equal(a, b)

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        m = self._model()
        with CheckpointManager(str(tmp_path), interval=1, keep=3) as mgr:
            for s in range(1, 4):
                mgr.maybe_save(m, s)
            mgr.wait()
            newest = mgr.path_for(3)
            newest.write_bytes(newest.read_bytes()[:100])   # truncate
            step, _ = mgr.restore_latest(self._model(seed=5))
        assert step == 2

    def test_discover_after_cold_restart(self, tmp_path):
        m = self._model()
        with CheckpointManager(str(tmp_path), interval=1) as mgr:
            mgr.maybe_save(m, 5)
        fresh = CheckpointManager(str(tmp_path), asynchronous=False)
        assert fresh.discover() is not None
        step, _ = fresh.restore_latest(self._model(seed=9))
        assert step == 5

    def test_nothing_to_restore_is_typed(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), asynchronous=False)
        with pytest.raises(CheckpointCorruptError, match="no loadable"):
            mgr.restore_latest(self._model())


# --------------------------------------------------------------------------
# trainer elasticity
# --------------------------------------------------------------------------

class TestTrainerElasticity:
    def _trainer(self, world, momentum=0.9):
        g = build_small_cnn(with_bn=False, name=f"grow_{world}")
        blocks = [(0, len(g) // 2), (len(g) // 2, len(g))]
        plan = make_plan(g.name, 2, blocks, [S, R])
        return g, DataParallelKarmaTrainer(
            g, plan, world, near_capacity=2 * GiB, far_capacity=32 * GiB,
            optimizer=HostSGD(lr=0.05, momentum=momentum),
            dtype=np.float64, seed=11)

    def test_grow_world_is_bit_identical(self):
        g, dp = self._trainer(2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3, 16, 16))
        y = rng.integers(0, 5, 8)
        dp.train_step(x, y)          # momentum slots now non-trivial
        dp.grow_world(4)
        assert dp.world_size == 4
        dp.assert_replicas_identical()
        # the grown pool keeps training in lockstep
        for _ in range(2):
            dp.train_step(x, y)
            assert dp.parameters_equal_across_workers()

    def test_grow_matches_never_shrunk_run(self):
        # Cross-world-size equality is only numerical (reduction order
        # changes with the shard split); bit-identity is the *within*
        # world guarantee, asserted after every step below.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 3, 16, 16))
        y = rng.integers(0, 5, 12)
        _, elastic = self._trainer(4)
        _, steady = self._trainer(4)
        for resize in (None, lambda: elastic.shrink_world(2),
                       lambda: elastic.grow_world(4)):
            if resize is not None:
                resize()
            elastic.train_step(x, y)
            steady.train_step(x, y)
            elastic.assert_replicas_identical()
        for (ln, pn, a), (_, _, b) in zip(
                elastic.models[0].parameters(),
                steady.models[0].parameters()):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12,
                                       err_msg=f"{ln}/{pn}")

    def test_grow_rejects_shrinking(self):
        _, dp = self._trainer(3)
        with pytest.raises(ValueError):
            dp.grow_world(2)

    def test_apply_plan_keeps_replica_state(self):
        g, dp = self._trainer(2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 16, 16))
        y = rng.integers(0, 5, 4)
        dp.train_step(x, y)
        before = [a.copy() for _, _, a in dp.models[0].parameters()]
        blocks = blocks_of(g, 3)
        dp.apply_plan(make_plan(g.name, 2, blocks, [S, C, R]))
        for (_, _, a), b in zip(dp.models[0].parameters(), before):
            assert np.array_equal(a, b)
        dp.train_step(x, y)          # new schedule still trains
        assert dp.parameters_equal_across_workers()

    def test_divergence_is_named(self):
        _, dp = self._trainer(2)
        lname, pname, arr = next(iter(dp.models[1].parameters()))
        arr[...] += 1.0
        with pytest.raises(RuntimeError, match=f"worker 1 {lname}/{pname}"):
            dp.assert_replicas_identical()


# --------------------------------------------------------------------------
# end-to-end churn scenarios
# --------------------------------------------------------------------------

class TestChurnScenario:
    def test_clean_churn_loses_zero_steps(self, tmp_path):
        cfg = ScenarioConfig(steps=10, world=4, global_batch=12, seed=0)
        result = ChurnScenario(cfg, str(tmp_path)).run()
        assert result.trace.preemptions >= 2 and result.trace.joins >= 1
        assert result.lost_steps == 0
        assert result.replayed_steps == 0
        assert len(result.losses) == 10
        assert all(r.decision == "replan" for r in result.reports)

    def test_dirty_churn_restarts_and_replays(self, tmp_path):
        cfg = ScenarioConfig(steps=10, world=4, global_batch=12, seed=3,
                             dirty_rate=1.0, checkpoint_interval=2)
        result = ChurnScenario(cfg, str(tmp_path)).run()
        restarts = [r for r in result.reports if r.decision == "restart"]
        assert restarts, "dirty preemptions must restart from checkpoint"
        # replay is bounded by the checkpoint cadence
        assert all(r.lost_steps < cfg.checkpoint_interval
                   for r in restarts)
        assert result.steps_run == len(result.losses) + result.lost_steps

    def test_scenario_deterministic(self, tmp_path):
        cfg = ScenarioConfig(steps=8, world=3, global_batch=12, seed=5,
                             preemptions=1, joins=1)
        r1 = ChurnScenario(cfg, str(tmp_path / "a")).run()
        r2 = ChurnScenario(cfg, str(tmp_path / "b")).run()
        assert r1.losses == r2.losses
        assert r1.world_trajectory == r2.world_trajectory

    def test_recorded_trace_drives_scenario(self, tmp_path):
        trace = FaultTrace.from_events([
            FaultEvent(step=2, kind=FaultKind.PREEMPT),
            FaultEvent(step=4, kind=FaultKind.JOIN)])
        cfg = ScenarioConfig(steps=6, world=2, global_batch=12, seed=1)
        result = ChurnScenario(cfg, str(tmp_path), trace=trace).run()
        assert result.final_world == 2
        assert [w for _, w in result.world_trajectory] == [2, 1, 2]

    def test_indivisible_trace_rejected(self, tmp_path):
        trace = FaultTrace.from_events(
            [FaultEvent(step=1, kind=FaultKind.JOIN)])   # world 4 -> 5
        cfg = ScenarioConfig(steps=4, world=4, global_batch=12)
        with pytest.raises(ValueError, match="does not divide"):
            ChurnScenario(cfg, str(tmp_path), trace=trace)


class TestSimulatedChurn:
    def test_timeline_deterministic_and_consistent(self):
        trace = synthetic_trace(2, steps=20, world=4, preemptions=2,
                                joins=1, allowed_worlds=divisor_worlds(12))
        a = simulate_churn(trace, steps=20, world=4, global_batch=12)
        b = simulate_churn(trace, steps=20, world=4, global_batch=12)
        assert a.to_dict() == b.to_dict()
        assert 0 < a.throughput_ratio <= 1.5
        assert a.total_s > 0 and a.no_churn_s > 0

    def test_dirty_preempt_costs_lost_steps(self):
        trace = FaultTrace.from_events([FaultEvent(
            step=5, kind=FaultKind.PREEMPT, dirty=True)])
        tl = simulate_churn(trace, steps=10, world=4, global_batch=12,
                            checkpoint_interval=3)
        assert tl.total_lost_steps == 2   # last checkpoint at step 3
        assert tl.events[0]["decision"] == "restart"
        assert tl.max_time_to_recover_s > 0

    def test_slowdown_inflates_only_its_window(self):
        slow = FaultTrace.from_events([FaultEvent(
            step=2, kind=FaultKind.SLOWDOWN, factor=3.0, duration=2)])
        quiet = FaultTrace(events=())
        t_slow = simulate_churn(slow, steps=10, world=4, global_batch=12)
        t_quiet = simulate_churn(quiet, steps=10, world=4,
                                 global_batch=12)
        assert t_slow.total_s > t_quiet.total_s
        # exactly two steps pay the 3x factor
        extra = t_slow.total_s - t_quiet.total_s
        per_step = t_quiet.total_s / 10
        assert extra == pytest.approx(2 * per_step * 2.0)


# --------------------------------------------------------------------------
# service chaos mode
# --------------------------------------------------------------------------

class TestServiceChaos:
    def _daemon(self, monkey, planner=None, **cfg):
        from repro.service.daemon import PlannerDaemon, ServiceConfig

        def default_planner(config):
            return {"model": config.get("model"), "planned": True}

        return PlannerDaemon(ServiceConfig(**cfg),
                             planner=planner or default_planner,
                             chaos=monkey)

    def test_chaos_monkey_is_seeded(self):
        a = ChaosMonkey(0.5, seed=1)
        b = ChaosMonkey(0.5, seed=1)
        assert [a() for _ in range(20)] == [b() for _ in range(20)]
        assert a.crashes == b.crashes > 0

    def test_crash_is_typed_and_retryable(self):
        from repro.service.errors import WorkerCrashed, rejection_for
        assert WorkerCrashed.retryable
        assert not rejection_for("bad_request", "x").retryable
        wired = rejection_for("worker_crashed", "boom")
        assert isinstance(wired, WorkerCrashed) and wired.retryable

    def test_worker_crash_resolves_flight_and_respawns(self):
        from repro.service.errors import WorkerCrashed

        with self._daemon(ChaosMonkey(crash_first=1),
                          service_workers=1) as daemon:
            with pytest.raises(WorkerCrashed):
                daemon.request({"model": "a"})
            # the respawned worker serves the retry
            resp = daemon.request({"model": "a"})
            assert resp.record["planned"]

    def test_client_retries_through_crashes(self, tmp_path):
        from repro.service.client import PlannerClient, wait_for_server
        from repro.service.server import PlannerServer

        sock = str(tmp_path / "chaos.sock")
        daemon = self._daemon(ChaosMonkey(crash_first=2),
                              service_workers=2).start()
        try:
            with PlannerServer(daemon, sock):
                assert wait_for_server(sock, timeout=10)
                with PlannerClient(sock, timeout=10) as client:
                    reply = client.plan({"model": "m", "batch": 1},
                                        retries=4, backoff_s=0.01)
                    assert reply["record"]["planned"]
        finally:
            daemon.stop()

    def test_client_does_not_retry_deterministic_errors(self, tmp_path):
        from repro.service.client import PlannerClient, wait_for_server
        from repro.service.errors import PlanningFailed
        from repro.service.server import PlannerServer

        calls = {"n": 0}

        def failing_planner(config):
            calls["n"] += 1
            raise ValueError("bad model config")

        sock = str(tmp_path / "fail.sock")
        daemon = self._daemon(None, planner=failing_planner).start()
        try:
            with PlannerServer(daemon, sock):
                assert wait_for_server(sock, timeout=10)
                with PlannerClient(sock, timeout=10) as client:
                    with pytest.raises(PlanningFailed):
                        client.plan({"model": "m"}, retries=5,
                                    backoff_s=0.01)
        finally:
            daemon.stop()
        assert calls["n"] == 1   # no retry on a non-retryable rejection

    def test_stop_drains_in_flight_requests(self, tmp_path):
        from repro.service.client import PlannerClient, wait_for_server
        from repro.service.server import PlannerServer

        def slow_planner(config):
            time.sleep(0.3)
            return {"planned": True}

        sock = str(tmp_path / "drain.sock")
        daemon = self._daemon(None, planner=slow_planner).start()
        server = PlannerServer(daemon, sock).start()
        got = {}
        try:
            assert wait_for_server(sock, timeout=10)
            client = PlannerClient(sock, timeout=10)

            def request():
                got["reply"] = client.plan({"model": "slow"})

            t = threading.Thread(target=request)
            t.start()
            deadline = time.monotonic() + 5
            while server.active_requests == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.active_requests >= 1
            server.stop(drain_s=5.0)   # must wait for the reply to land
            t.join(timeout=5)
            assert got["reply"]["record"]["planned"]
            client.close()
        finally:
            daemon.stop()

    def test_chaos_metrics_land(self):
        from repro.obs.metrics import METRICS

        with self._daemon(ChaosMonkey(crash_first=1),
                          service_workers=1) as daemon:
            from repro.service.errors import WorkerCrashed
            with pytest.raises(WorkerCrashed):
                daemon.request({"model": "z"})
            daemon.request({"model": "z"})
        snap = METRICS.snapshot()["counters"]
        assert snap.get("service.worker_crashes", 0) >= 1
        assert snap.get("service.workers_respawned", 0) >= 1


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

class TestElasticCLI:
    def test_elastic_json_run(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["elastic", "--steps", "6", "--world", "2",
                   "--global-batch", "8", "--preemptions", "1",
                   "--joins", "1", "--seed", "2", "--json",
                   "--checkpoint-dir", str(tmp_path / "ck"),
                   "--save-trace", str(tmp_path / "trace.json")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lost_steps"] == 0
        assert len(out["recoveries"]) == 2
        assert (tmp_path / "trace.json").exists()

    def test_elastic_rejects_indivisible_batch(self, capsys):
        from repro.cli import main

        rc = main(["elastic", "--world", "3", "--global-batch", "8"])
        assert rc == 2
        assert "divide" in capsys.readouterr().err
