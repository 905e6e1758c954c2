"""Middleware micro-benchmarks: the substrate's own performance.

Not a paper figure — these time the simulator and middleware hot paths
(a full 256-task execution, a batch scheduler pass under a deep queue,
the trace-to-TTC decomposition) so regressions in the substrate are
caught by the benchmark suite.
"""

from repro.cluster import BatchJob, EasyBackfillScheduler, SchedulerView
from repro.cluster.schedulers import RunningMirror
from repro.core import decompose
from repro.experiments import TABLE1, run_single
from repro.telemetry import build_graph


def test_bench_full_execution(benchmark):
    """Wall time to simulate one late-binding 256-task execution."""
    counter = iter(range(10_000))

    def one_run():
        return run_single(TABLE1[3], 256, rep=next(counter), campaign_seed=99)

    result = benchmark.pedantic(one_run, rounds=3, iterations=1)
    assert result.units_done == 256


def test_bench_easy_backfill_pass(benchmark):
    """One EASY scheduling pass over a 200-deep queue."""
    pending = [
        BatchJob(cores=(i % 64) + 1, runtime=3600, walltime=7200)
        for i in range(200)
    ]
    mirror = RunningMirror()
    for i in range(50):
        mirror.start(i, float(i * 60), 128)
    view = SchedulerView(
        now=0.0, free_cores=512, pending=tuple(pending), mirror=mirror
    )
    scheduler = EasyBackfillScheduler()
    picks = benchmark(scheduler.select, view)
    assert picks  # something schedulable in a 512-core hole


def test_bench_decomposition(campaign, benchmark):
    """TTC decomposition from instrumented histories (analysis hot path).

    Times the whole derivation: the causal graph's walk of the pilot and
    unit histories, then the decomposition read off that graph.
    """
    # Re-run a small execution to get pilots/units with histories.
    from repro.core import PlannerConfig, Binding
    from repro.experiments import build_environment
    from repro.skeleton import SkeletonAPI, paper_skeleton

    env = build_environment(seed=123)
    env.warm_up(3600)
    report = env.execution_manager.execute(
        SkeletonAPI(paper_skeleton(128, gaussian=False), seed=1),
        PlannerConfig(binding=Binding.LATE, n_pilots=3),
    )
    window = report.decomposition

    def derive():
        graph = build_graph(
            report.pilots, report.units, window.t_start, window.t_end
        )
        return decompose(graph, report.pilots, report.units)

    d = benchmark(derive)
    assert d.units_done == 128
    assert repr(d) == repr(report.decomposition)  # NaN waits compare by repr
