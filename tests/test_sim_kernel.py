"""Unit tests for the discrete-event simulation kernel: effect
semantics, interleaving, determinism, time domains, daemon liveness,
timed crashes, and error propagation into plans."""

import pytest

from repro.cloud.account import CloudAccount
from repro.errors import ClientCrashError, NoSuchKeyError
from repro.sim import Batch, Delay, ProcessState, SimKernel


def make_account(seed=0):
    return CloudAccount(seed=seed)


class TestDelaySemantics:
    def test_delays_advance_the_clock_to_completion(self):
        account = make_account()
        kernel = SimKernel(account)

        def sleeper():
            yield Delay(5.0)
            yield Delay(2.5)

        process = kernel.spawn(sleeper(), name="sleeper")
        end = kernel.run()
        assert end == pytest.approx(7.5)
        assert process.state is ProcessState.DONE
        assert process.domain.idle_s == pytest.approx(7.5)
        assert process.domain.busy_s == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1.0)

    def test_spawn_in_the_past_rejected(self):
        account = make_account()
        account.clock.advance(10.0)
        kernel = SimKernel(account)
        with pytest.raises(ValueError):
            kernel.spawn(iter(()), at=5.0)


class TestBatchSemantics:
    def test_charged_batch_resumes_at_finish_time(self):
        account = make_account()
        account.s3.create_bucket("b")
        kernel = SimKernel(account)
        seen = {}

        def uploader():
            from repro.cloud.blob import Blob

            result = yield Batch(
                [account.s3.put_request("b", "k", Blob.synthetic(1024, "k"))],
                connections=1,
            )
            seen["makespan"] = result.makespan
            seen["now"] = account.now

        kernel.spawn(uploader(), name="uploader")
        kernel.run()
        assert seen["makespan"] > 0
        assert seen["now"] == pytest.approx(seen["makespan"])

    def test_uncharged_batch_is_free_for_the_process(self):
        account = make_account()
        account.s3.create_bucket("b")
        kernel = SimKernel(account)

        def free_rider():
            from repro.cloud.blob import Blob

            yield Batch(
                [account.s3.put_request("b", "k", Blob.synthetic(1024, "k"))],
                connections=1,
                charge=False,
            )

        process = kernel.spawn(free_rider(), name="daemonish")
        end = kernel.run()
        assert end == 0.0  # applied and billed, but no process time
        assert process.domain.busy_s == 0.0
        assert account.billing.operation_count() == 1

    def test_service_errors_are_thrown_into_the_plan(self):
        account = make_account()
        account.s3.create_bucket("b")
        kernel = SimKernel(account)
        outcome = {}

        def prober():
            try:
                yield Batch([account.s3.get_request("b", "missing")], 1)
            except NoSuchKeyError:
                outcome["caught"] = True

        kernel.spawn(prober(), name="prober")
        kernel.run()
        assert outcome.get("caught")


class TestInterleaving:
    def test_processes_interleave_in_virtual_time(self):
        account = make_account()
        kernel = SimKernel(account)
        order = []

        def ticker(name, period, count):
            for _ in range(count):
                yield Delay(period)
                order.append((name, account.now))

        kernel.spawn(ticker("a", 2.0, 3), name="a")
        kernel.spawn(ticker("b", 3.0, 2), name="b")
        kernel.run()
        # Ties at t=6 break by scheduling order: b queued its t=6 wake at
        # t=3, before a queued its own at t=4.
        assert order == [
            ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0),
        ]

    def test_same_time_activations_run_in_spawn_order(self):
        account = make_account()
        kernel = SimKernel(account)
        order = []

        def one_shot(name):
            order.append(name)
            return
            yield  # pragma: no cover - makes this a generator

        kernel.spawn(one_shot("first"), name="first")
        kernel.spawn(one_shot("second"), name="second")
        kernel.run()
        assert order == ["first", "second"]

    def test_determinism_same_seed_same_trace(self):
        def run_once():
            account = make_account(seed=7)
            account.s3.create_bucket("b")
            kernel = SimKernel(account)
            trace = []

            def writer(index):
                from repro.cloud.blob import Blob

                for step in range(3):
                    yield Batch(
                        [
                            account.s3.put_request(
                                "b", f"w{index}-{step}",
                                Blob.synthetic(8192, f"{index}-{step}"),
                            )
                        ],
                        connections=2,
                    )
                    trace.append((index, step, round(account.now, 9)))
                    yield Delay(0.5 * (index + 1))

            for index in range(3):
                kernel.spawn(writer(index), name=f"w{index}")
            end = kernel.run()
            return end, trace, account.billing.operation_count()

        assert run_once() == run_once()


class TestDaemonLiveness:
    def test_daemons_do_not_keep_the_simulation_alive(self):
        account = make_account()
        kernel = SimKernel(account)
        ticks = []

        def forever():
            while True:
                yield Delay(1.0)
                ticks.append(account.now)

        def client():
            yield Delay(3.5)

        kernel.spawn(forever(), name="daemon", daemon=True)
        kernel.spawn(client(), name="client")
        end = kernel.run()
        assert end == pytest.approx(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_run_until_advances_daemons_without_clients(self):
        account = make_account()
        kernel = SimKernel(account)
        ticks = []

        def forever():
            while True:
                yield Delay(2.0)
                ticks.append(account.now)

        kernel.spawn(forever(), name="daemon", daemon=True)
        end = kernel.run(until=7.0)
        assert end == pytest.approx(7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_every_samples_on_the_interval(self):
        account = make_account()
        kernel = SimKernel(account)
        samples = []
        kernel.every(1.0, samples.append)

        def client():
            yield Delay(2.5)

        kernel.spawn(client(), name="client")
        kernel.run()
        assert samples == [0.0, 1.0, 2.0]


class TestCrashes:
    def test_crash_point_error_marks_process_crashed(self):
        account = make_account()
        account.faults.arm_crash("test.point")
        kernel = SimKernel(account)

        def doomed():
            yield Delay(1.0)
            account.faults.crash_point("test.point")
            yield Delay(1.0)  # pragma: no cover - never reached

        process = kernel.spawn(doomed(), name="doomed")
        kernel.run()
        assert process.state is ProcessState.CRASHED
        assert process.crash is not None

    def test_timed_crash_kills_target_at_armed_time(self):
        account = make_account()
        account.faults.arm_timed_crash("victim", at=4.0)
        kernel = SimKernel(account)
        progress = []

        def victim():
            while True:
                yield Delay(1.5)
                progress.append(account.now)

        def bystander():
            yield Delay(10.0)

        process = kernel.spawn(victim(), name="victim", daemon=True)
        kernel.spawn(bystander(), name="bystander")
        kernel.run()
        assert process.state is ProcessState.CRASHED
        # Activations at 1.5 and 3.0 happened; the 4.5 one never did —
        # the crash fired at its armed time, mid-sleep.
        assert progress == [1.5, 3.0]
        assert account.faults.timed_crashes_for("victim")[0].fired

    def test_timed_crash_does_not_touch_other_processes(self):
        account = make_account()
        account.faults.arm_timed_crash("victim", at=2.0)
        kernel = SimKernel(account)

        def victim():
            yield Delay(5.0)

        def survivor():
            yield Delay(5.0)

        crashed = kernel.spawn(victim(), name="victim")
        alive = kernel.spawn(survivor(), name="survivor")
        kernel.run()
        assert crashed.state is ProcessState.CRASHED
        assert alive.state is ProcessState.DONE


class TestTimeDomains:
    def test_busy_and_idle_accrue_to_the_owning_process(self):
        account = make_account()
        account.s3.create_bucket("b")
        kernel = SimKernel(account)

        def worker():
            from repro.cloud.blob import Blob

            yield Delay(2.0)
            yield Batch(
                [account.s3.put_request("b", "k", Blob.synthetic(65536, "k"))],
                connections=1,
            )

        process = kernel.spawn(worker(), name="worker")
        kernel.run()
        assert process.domain.idle_s == pytest.approx(2.0)
        assert process.domain.busy_s > 0
        assert process.domain.elapsed == pytest.approx(
            process.domain.idle_s + process.domain.busy_s
        )

    def test_process_lookup_by_name(self):
        account = make_account()
        kernel = SimKernel(account)
        kernel.spawn(iter(()), name="x")
        assert kernel.process("x").name == "x"
        with pytest.raises(KeyError):
            kernel.process("missing")


class TestReviewRegressions:
    """Fixes from the pre-merge review, pinned."""

    def test_timed_crash_armed_after_spawn_still_fires(self):
        account = make_account()
        kernel = SimKernel(account)

        def forever():
            while True:
                yield Delay(1.0)

        process = kernel.spawn(forever(), name="late-victim", daemon=True)
        kernel.run(until=5.0)
        assert process.state is ProcessState.WAITING
        account.faults.arm_timed_crash("late-victim", at=8.0)
        kernel.run(until=12.0)
        assert process.state is ProcessState.CRASHED
        assert account.faults.timed_crashes_for("late-victim")[0].fired

    def test_gateway_crash_mid_run_does_not_hang_fleet_drain(self):
        from repro.service import IngestGateway, ShardRouter
        from repro.workloads.fleet import make_fleet, run_fleet_kernel

        account = make_account()
        gateway = IngestGateway(account, ShardRouter(shards=1))
        fleet = make_fleet(clients=3, files_per_client=2, seed=0)
        account.faults.arm_timed_crash("gateway", at=0.3)
        result = run_fleet_kernel(
            account, gateway, fleet, seed=0, think_s=0.5, window_s=0.25
        )
        # The run terminates (the old code spun forever on gateway.busy)
        # and whatever shipped before the crash is accounted for.
        assert result.flushes == 6
        assert not gateway._flushing
