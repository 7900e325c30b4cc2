"""Harness throughput: how fast the simulator itself runs.

Unlike E1–E10 (whose numbers are *simulated* seconds), these benchmarks
measure real wall-clock performance of the substrate — the figure of
merit for how large an experiment the harness can carry.

Regression guarding is *ratio-based*: the guard benchmark runs the
frozen seed kernel and the shipped kernel back to back on one machine
and asserts the speedup, so the gate is portable across runner speeds.
Absolute wall times are never asserted (they only measured the CI
machine), but the measured ratio is recorded in the BENCH_obs metrics
attachment for trend-watching.
"""

import pytest

from repro.bench.artifact import record_result
from repro.bench.exp_population import wake_storm
from repro.bench.report import ExperimentResult
from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel, Sleep
from repro.sim._seed_kernel import Kernel as SeedKernel
from repro.store import World
from repro.weaksets import DynamicSet

#: Floor for the small-scale (2 × 10⁴ clients) kernel speedup.  The
#: population-scale ≥3x gate lives in bench_population.py (E22a); this
#: one guards the substrate at everyday-experiment scale, where shallower
#: queues narrow the scheduler's advantage.
MIN_SMALL_SCALE_SPEEDUP = 1.5


def test_kernel_event_throughput(benchmark):
    """Pure kernel: schedule and run many sleep/wake events."""

    def run():
        kernel = Kernel()

        def sleeper(n):
            for _ in range(n):
                yield Sleep(0.001)

        for _ in range(20):
            kernel.spawn(sleeper(250))
        kernel.run()
        return kernel.now

    result = benchmark(run)
    assert result == pytest.approx(0.25)


def test_rpc_round_trip_throughput(benchmark):
    """Transport + dispatch: many sequential RPCs."""

    class Echo:
        def echo(self, x):
            return x

    def run():
        kernel = Kernel()
        net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.001)))
        net.register_service("b", "echo", Echo())

        def caller():
            for i in range(500):
                yield from net.call("a", "b", "echo", "echo", i)

        kernel.run_process(caller())
        return net.transport.stats.total_sent.value

    sent = benchmark(run)
    assert sent == 1000  # 500 requests + 500 replies


def test_full_stack_iteration_throughput(benchmark):
    """World + weak set + recorder + checker-grade tracing, end to end."""

    def run():
        kernel = Kernel(seed=1)
        nodes = ["client"] + [f"s{i}" for i in range(8)]
        net = Network(kernel, full_mesh(nodes, FixedLatency(0.005)))
        world = World(net)
        world.create_collection("c", primary="s0")
        for i in range(100):
            world.seed_member("c", f"m{i:03d}", value=i, home=f"s{i % 8}")
        ws = DynamicSet(world, "client", "c")

        def proc():
            return (yield from ws.elements().drain())

        result = kernel.run_process(proc())
        return len(result.elements)

    count = benchmark(run)
    assert count == 100


def test_kernel_speedup_vs_seed_loop(benchmark):
    """E22b: the ratio guard at everyday scale (no wall thresholds)."""
    n_clients, wakes = 20_000, 4

    def run():
        seed_kernel = SeedKernel(seed=1)
        seed_wall = wake_storm(seed_kernel, n_clients, wakes,
                               transient=False)
        new_kernel = Kernel(seed=1)
        new_wall = wake_storm(new_kernel, n_clients, wakes)
        assert (seed_kernel.obs.metrics.value("kernel.events")
                == new_kernel.obs.metrics.value("kernel.events"))
        return seed_wall / new_wall, int(
            new_kernel.obs.metrics.value("kernel.events"))

    speedup, events = benchmark.pedantic(run, rounds=1, iterations=1)
    result = ExperimentResult(
        "E22b",
        f"Kernel speedup guard: {n_clients} clients, shipped vs seed loop",
        columns=["workload", "events"],
        notes="speedup is machine-relative and lives in the metrics "
              "attachment; the committed floor is asserted, wall times "
              "are not",
    )
    result.add(workload="wake-storm", events=events)
    record_result(result, metrics={"speedup_vs_seed": round(speedup, 2)})
    print(f"\n[E22b] kernel speedup vs seed loop: {speedup:.2f}x")
    assert speedup >= MIN_SMALL_SCALE_SPEEDUP
