"""The fault log and the health-event log of one supervised chaos run,
held against recorded digests.

The scenario is the ``pilot-storm`` preset (fault seed 4) against late
binding over three pilots, 512 tasks, with a one-failure breaker, the
unit watchdog and a 12 h deadline: five pilot kills, two recovery
reroutes and five supervision events (breaker open/half-open), ending
when the last replacement dies. Each rerouted replacement is described
for its new resource and so submitted through that resource's access
schema; that moves its PENDING_ACTIVE stamp by one second (gordon-sim
to comet-sim: 1 s earlier; the second reroute, to hopper-sim: 1 s
later) but neither log. Regenerate the golden only for a deliberate
behaviour change:

    PYTHONPATH=src python tests/health/test_event_log_golden.py
"""

import json
from pathlib import Path

from repro.core import Binding, PlannerConfig, RecoveryPolicy
from repro.experiments import build_environment
from repro.faults import FaultInjector, preset_plan
from repro.health import BreakerPolicy, SupervisionPolicy
from repro.skeleton import SkeletonAPI, paper_skeleton

GOLDEN = Path(__file__).with_name("event_log_golden.json")


def run_storm():
    env = build_environment(seed=4, supervision=SupervisionPolicy(
        breaker=BreakerPolicy(failure_threshold=1, cooldown_s=3600.0),
        watchdog_timeout_s=120.0,
        deadline_s=12 * 3600.0,
    ))
    env.warm_up(4 * 3600.0)
    env.execution_manager.attach_faults(FaultInjector(
        env.sim, preset_plan("pilot-storm", seed=4),
        pilot_manager=env.execution_manager.pilot_manager,
        network=env.network,
    ))
    config = PlannerConfig(
        binding=Binding.LATE, n_pilots=3, unit_scheduler="backfill"
    )
    skeleton = SkeletonAPI(paper_skeleton(512, gaussian=False), seed=4)
    return env.execution_manager.execute(
        skeleton, config,
        recovery=RecoveryPolicy(max_resubmissions=2, jitter_frac=0.1),
    )


def logs_of(report):
    return {
        "fault_digest": report.fault_log.digest(),
        "fault_summary": report.fault_log.summary(),
        "health_digest": report.health_log.digest(),
        "health_summary": report.health_log.summary(),
    }


def test_fault_and_health_logs_match_the_golden():
    assert logs_of(run_storm()) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(logs_of(run_storm()), indent=1) + "\n")
