"""Experiment harness: campaigns, analysis, figure regeneration, ablations.

Every public name resolves on first use (PEP 562): ``from
repro.experiments import TABLE1, run_single`` imports the campaign model
(``campaign`` and ``environment``) and nothing else, so a campaign cell
loads neither the observatory (``serve``, ``watch``, ``monitor``) nor
the result store's ``sqlite3`` nor the ``-j`` workers' process
machinery. Each submodule loads when one of its names is first asked
for, and the name is then cached here.

To export a name, add it to its submodule's entry in :data:`_EXPORTS`;
``__all__``, ``dir()`` and the lookup all derive from that table.
"""

import importlib

#: Every public name, keyed by the submodule that defines it.
_EXPORTS = {
    "ablation": (
        "AblationPoint",
        "WaitModelComparison",
        "binding_rationale_study",
        "emergent_vs_sampled_study",
        "energy_study",
        "data_affinity_ablation",
        "heterogeneity_ablation",
        "locality_study",
        "nonuniform_tasks_study",
        "pilot_count_sweep",
        "pool_scaling_study",
        "render_ablation",
        "scheduler_ablation",
    ),
    "analysis": (
        "CellStats",
        "cell_stats",
        "component_shares",
        "paired_significance",
        "significance",
        "tw_range",
        "variability_ratio",
        "win_fraction",
    ),
    "calibration": (
        "ResourceCalibration",
        "calibrate_all",
        "calibrate_resource",
        "render_calibration",
    ),
    "campaign": (
        "CampaignResult",
        "CellError",
        "CellProgress",
        "ExperimentSpec",
        "RunResult",
        "TABLE1",
        "campaign_meta",
        "run_single",
    ),
    "environment": ("Environment", "build_environment"),
    "figures": (
        "render_all",
        "render_figure2",
        "render_figure3",
        "render_figure4",
        "render_table1",
    ),
    "ledger": ("RunLedger", "flag_anomalies", "write_ndjson"),
    "monitor": ("CampaignMonitor", "host_sample"),
    "resilience": (
        "EXIT_RESUMABLE",
        "CampaignInterrupted",
        "IncompatibleResumeError",
        "ResiliencePolicy",
        "ResumePlan",
        "ShutdownControl",
        "StoreInUseError",
        "check_fresh",
        "config_digest",
        "meta_diff",
        "prepare_resume",
    ),
    "runner": (
        "GridError",
        "RunnerStats",
        "cost_eta",
        "resolve_jobs",
        "run_campaign",
        "run_grid",
    ),
    "sentinel": (
        "campaign_fingerprint",
        "campaign_fingerprint_from_store",
        "compare_fingerprints",
        "detect_anomalies",
        "robust_z",
    ),
    "serve": ("MonitorServer", "parse_serve_spec"),
    "store": (
        "CampaignStore",
        "is_store",
        "migrate_json",
        "open_campaign",
        "store_summary",
    ),
    "watch": ("render_dashboard", "render_tail", "state_from_url"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
