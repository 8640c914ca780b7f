"""Experiment harness and per-figure drivers.

:mod:`repro.experiments.harness` runs one video session end-to-end
inside the discrete-event emulator under a chosen transport scheme
(SP / CM / vanilla-MP / MPTCP / XLINK variants); the other modules
build the paper's experiments on top of it.
"""

from repro.experiments.harness import (PathSpec, SchemeConfig, SessionResult,
                                       run_video_session, run_bulk_download,
                                       SCHEMES)
from repro.experiments.abtest import ABTestConfig, run_ab_day, run_ab_test
from repro.experiments.chaos import (ChaosSoakConfig, ChaosSoakResult,
                                     ScenarioOutcome, run_chaos_scenario,
                                     run_chaos_soak)
from repro.experiments.contention import (ContentionConfig, ContentionResult,
                                          run_contention)
from repro.experiments.parallel import (FleetResult, SessionOutcome,
                                        SessionTask, ShardResult,
                                        available_workers, fan_out,
                                        run_fleet, run_session_tasks)
from repro.experiments.fleet import (ABPopulationDriver, FleetConfig,
                                     FleetRun, MobilityPopulationDriver,
                                     run_fleet_driver)

__all__ = [
    "ContentionConfig",
    "ContentionResult",
    "run_contention",
    "PathSpec",
    "SchemeConfig",
    "SessionResult",
    "run_video_session",
    "run_bulk_download",
    "SCHEMES",
    "ABTestConfig",
    "run_ab_day",
    "run_ab_test",
    "ChaosSoakConfig",
    "ChaosSoakResult",
    "ScenarioOutcome",
    "run_chaos_scenario",
    "run_chaos_soak",
    "SessionOutcome",
    "SessionTask",
    "ShardResult",
    "FleetResult",
    "available_workers",
    "fan_out",
    "run_session_tasks",
    "run_fleet",
    "ABPopulationDriver",
    "FleetConfig",
    "FleetRun",
    "MobilityPopulationDriver",
    "run_fleet_driver",
]
