"""Tests for the SLO-aware admission front end (``repro.control.admission``).

Covers the degradation ladder's hysteresis contract (enter/exit bands,
min-dwell in both directions, multi-step downgrades, one-step recovery,
dwell-spaced transitions under flapping pressure), operator priority resolution
(kill > manual > adaptive), the deterministic accumulator shedding
scheme, the 429-style reject/retry-after path, the trace-event surface,
and — via the scriptable :meth:`AdmissionController.observe` entry —
cross-substrate parity: identical pressure/offer scripts must produce
bit-identical decision sequences on the simulated and threaded planes.
"""

import numpy as np
import pytest

from repro.check import OracleRecorder, check_conservation
from repro.control.admission import (
    ADAPTIVE_LEVELS,
    AdmissionConfig,
    AdmissionController,
    AdmissionLevel,
    DegradationLadder,
)
from repro.core.policies import AcesPolicy
from repro.graph.topology import TopologySpec, generate_topology
from repro.obs.recorder import MemoryRecorder
from repro.runtime.spc import RuntimeConfig, SPCRuntime
from repro.systems.simulated import SimulatedSystem, SystemConfig


def small_topology(seed=0, **overrides):
    params = dict(
        num_nodes=3,
        num_ingress=2,
        num_egress=2,
        num_intermediate=4,
        calibrate_rates=False,
    )
    params.update(overrides)
    return generate_topology(
        TopologySpec(**params), np.random.default_rng(seed)
    )


def ladder_config(**overrides):
    params = dict(
        slo_p95=1.0,
        min_dwell=0.5,
        enter=(1.0, 1.3, 1.6),
        exit=(0.85, 1.1, 1.35),
    )
    params.update(overrides)
    return AdmissionConfig(**params)


class TestAdmissionConfig:
    def test_defaults_validate(self):
        config = AdmissionConfig()
        assert config.slo_p95 > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo_p95": 0.0},
            {"slo_p95": -1.0},
            {"queue_slo_fraction": 0.0},
            {"queue_slo_fraction": 1.5},
            {"min_dwell": -0.1},
            {"pressure_window": 0.0},
            {"retry_after": 0.0},
            {"shed_low_fraction": -0.1},
            {"shed_high_fraction": 1.5},
            # High-pressure tier must shed at least as hard as the low one.
            {"shed_low_fraction": 0.8, "shed_high_fraction": 0.5},
            # Bands must pair one enter/exit threshold per adaptive level.
            {"enter": (1.0, 1.3)},
            {"exit": (0.9,)},
            # Hysteresis: every enter strictly above its exit.
            {"enter": (1.0, 1.3, 1.6), "exit": (1.0, 1.1, 1.35)},
            # Thresholds strictly increasing with severity.
            {"enter": (1.3, 1.0, 1.6)},
            {"enter": (1.0, 1.3, 1.6), "exit": (1.1, 0.85, 1.35)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)

    def test_shed_fraction_ladder(self):
        config = AdmissionConfig(
            shed_low_fraction=0.25, shed_high_fraction=0.6
        )
        assert config.shed_fraction(AdmissionLevel.NORMAL) == 0.0
        assert config.shed_fraction(AdmissionLevel.SHED_LOW) == 0.25
        assert config.shed_fraction(AdmissionLevel.SHED_HIGH) == 0.6

    def test_threshold_lookup_tracks_adaptive_levels(self):
        config = ladder_config()
        for index, level in enumerate(ADAPTIVE_LEVELS):
            assert config.enter_threshold(level) == config.enter[index]
            assert config.exit_threshold(level) == config.exit[index]


class TestDegradationLadder:
    def test_starts_normal_and_free(self):
        ladder = DegradationLadder(ladder_config())
        assert ladder.level is AdmissionLevel.NORMAL
        assert ladder.debounce.cooled(0.0)
        assert ladder.transitions == 0

    def test_low_pressure_no_move(self):
        ladder = DegradationLadder(ladder_config())
        assert ladder.step(0.5, 0.0) is None
        assert ladder.level is AdmissionLevel.NORMAL

    def test_enter_band_engages_shed_low(self):
        ladder = DegradationLadder(ladder_config())
        move = ladder.step(1.05, 0.0)
        assert move is not None
        assert move.prev is AdmissionLevel.NORMAL
        assert move.level is AdmissionLevel.SHED_LOW
        assert move.cause == "adaptive"
        assert move.since_last == float("inf")

    def test_multi_step_downgrade_in_one_observation(self):
        ladder = DegradationLadder(ladder_config())
        move = ladder.step(2.0, 0.0)
        assert move is not None
        assert move.level is AdmissionLevel.REJECT
        assert ladder.transitions == 1

    def test_hysteresis_band_holds_level(self):
        ladder = DegradationLadder(ladder_config())
        ladder.step(1.05, 0.0)
        # Between exit (0.85) and enter (1.0): no move either way, even
        # once the dwell has expired.
        assert ladder.step(0.95, 1.0) is None
        assert ladder.level is AdmissionLevel.SHED_LOW

    def test_recovery_is_single_step(self):
        ladder = DegradationLadder(ladder_config())
        ladder.step(2.0, 0.0)
        assert ladder.level is AdmissionLevel.REJECT
        move = ladder.step(0.1, 1.0)
        assert move is not None
        assert move.cause == "recovery"
        assert move.level is AdmissionLevel.SHED_HIGH
        # Still a full dwell away from the next recovery step.
        assert ladder.step(0.1, 1.2) is None
        move = ladder.step(0.1, 1.6)
        assert move is not None and move.level is AdmissionLevel.SHED_LOW

    def test_dwell_blocks_downgrade(self):
        ladder = DegradationLadder(ladder_config())
        ladder.step(1.05, 0.0)
        assert ladder.step(5.0, 0.2) is None
        assert ladder.level is AdmissionLevel.SHED_LOW
        move = ladder.step(5.0, 0.5)
        assert move is not None and move.level is AdmissionLevel.REJECT

    def test_dwell_blocks_recovery(self):
        ladder = DegradationLadder(ladder_config())
        ladder.step(1.05, 0.0)
        assert ladder.step(0.0, 0.3) is None
        move = ladder.step(0.0, 0.6)
        assert move is not None and move.cause == "recovery"

    def test_no_oscillations_under_flapping_pressure(self):
        # Thrash (re-entering a level faster than min_dwell after
        # leaving it) is impossible because every move, recovery
        # included, starts a dwell window: under square-wave pressure
        # observed at a third of the dwell, consecutive moves are still
        # at least min_dwell apart.
        config = ladder_config()
        ladder = DegradationLadder(config)
        now, moves = 0.0, []
        for step in range(120):
            pressure = 2.0 if step % 2 == 0 else 0.0
            move = ladder.step(pressure, now)
            if move is not None:
                moves.append(move.at)
            now += config.min_dwell / 3
        assert ladder.transitions == len(moves) > 10
        for earlier, later in zip(moves, moves[1:]):
            assert later - earlier >= config.min_dwell

    def test_adaptive_moves_never_skip_recovery(self):
        # Random pressure walk: every recovery move descends exactly one
        # rung and every adaptive move ascends.
        rng = np.random.default_rng(7)
        ladder = DegradationLadder(ladder_config())
        now = 0.0
        for _ in range(300):
            move = ladder.step(float(rng.uniform(0.0, 2.5)), now)
            if move is not None:
                if move.cause == "recovery":
                    assert int(move.level) == int(move.prev) - 1
                else:
                    assert move.level > move.prev
            now += float(rng.uniform(0.0, 0.4))


class TestPriorityResolution:
    def make(self):
        recorder = MemoryRecorder()
        controller = AdmissionController(ladder_config())
        controller.recorder = recorder
        return controller, recorder

    def test_kill_beats_manual_beats_adaptive(self):
        controller, _ = self.make()
        controller.set_manual_level(AdmissionLevel.SHED_HIGH)
        assert controller.effective_level is AdmissionLevel.SHED_HIGH
        controller.set_kill_switch(True)
        assert controller.effective_level is AdmissionLevel.KILL
        controller.set_kill_switch(False)
        assert controller.effective_level is AdmissionLevel.SHED_HIGH
        controller.set_manual_level(None)
        assert controller.effective_level is AdmissionLevel.NORMAL

    def test_override_causes_traced(self):
        controller, recorder = self.make()
        controller.set_kill_switch(True)
        controller.set_kill_switch(False)
        controller.set_manual_level(AdmissionLevel.SHED_LOW)
        controller.set_manual_level(None)
        causes = [e["cause"] for e in recorder.by_kind("admission_level")]
        assert causes == ["kill", "kill_release", "manual", "manual_release"]

    def test_adaptive_moves_shadowed_under_override(self):
        controller, recorder = self.make()
        controller.set_manual_level(AdmissionLevel.SHED_LOW)
        controller.observe(2.0, 0.0)  # ladder wants REJECT underneath
        assert controller.effective_level is AdmissionLevel.SHED_LOW
        assert controller.ladder.level is AdmissionLevel.REJECT
        events = recorder.by_kind("admission_level")
        shadowed = [e for e in events if e["shadowed"]]
        assert len(shadowed) == 1
        assert shadowed[0]["level"] == "REJECT"
        assert shadowed[0]["cause"] == "adaptive"

    def test_release_surfaces_adaptive_level(self):
        controller, recorder = self.make()
        controller.set_manual_level(AdmissionLevel.SHED_LOW)
        controller.observe(2.0, 0.0)
        controller.set_manual_level(None)
        assert controller.effective_level is AdmissionLevel.REJECT
        last = recorder.by_kind("admission_level")[-1]
        assert last["level"] == "REJECT"
        assert last["cause"] == "manual_release"


class TestDeterministicShedding:
    def test_exact_fraction_over_prefix(self):
        controller = AdmissionController(
            ladder_config(shed_low_fraction=0.25)
        )
        controller.set_manual_level(AdmissionLevel.SHED_LOW)
        verdicts = [
            controller.admit_ingress("src:a", float(i)) for i in range(100)
        ]
        assert verdicts.count("shed") == 25
        assert verdicts.count("admit") == 75
        stream = controller.streams["src:a"]
        assert stream.decisions == 100

    def test_shed_positions_are_deterministic(self):
        def run_once():
            controller = AdmissionController(ladder_config())
            controller.set_manual_level(AdmissionLevel.SHED_HIGH)
            return [
                controller.admit_ingress("src:a", float(i))
                for i in range(57)
            ]

        assert run_once() == run_once()

    def test_streams_accumulate_independently(self):
        controller = AdmissionController(
            ladder_config(shed_low_fraction=0.5)
        )
        controller.set_manual_level(AdmissionLevel.SHED_LOW)
        first = controller.admit_ingress("src:a", 0.0)
        second = controller.admit_ingress("src:b", 0.0)
        # Each stream's accumulator starts cold: neither first offer
        # sheds at fraction 0.5, both second offers do.
        assert (first, second) == ("admit", "admit")
        assert controller.admit_ingress("src:a", 0.1) == "shed"
        assert controller.admit_ingress("src:b", 0.1) == "shed"

    def test_normal_level_admits_everything(self):
        controller = AdmissionController(ladder_config())
        for i in range(20):
            assert controller.admit_ingress("src:a", float(i)) == "admit"
        assert controller.total_shed == 0
        assert controller.total_rejected == 0


class TestRejectAndBackoff:
    def test_reject_invokes_backoff_with_retry_after(self):
        recorder = MemoryRecorder()
        controller = AdmissionController(ladder_config(retry_after=0.75))
        controller.recorder = recorder
        deadlines = []
        controller.register_backoff("src:a", deadlines.append)
        controller.set_manual_level(AdmissionLevel.REJECT)
        assert controller.admit_ingress("src:a", 2.0) == "reject"
        assert deadlines == [2.75]
        event = recorder.by_kind("reject")[0]
        assert event["pe"] == "src:a"
        assert event["level"] == "REJECT"
        assert event["retry_after"] == 0.75

    def test_kill_switch_rejects(self):
        controller = AdmissionController(ladder_config())
        controller.set_kill_switch(True)
        assert controller.admit_ingress("src:a", 0.0) == "reject"
        assert controller.counters()["src:a"]["rejected"] == 1

    def test_unregistered_stream_reject_is_safe(self):
        controller = AdmissionController(ladder_config())
        controller.set_manual_level(AdmissionLevel.REJECT)
        assert controller.admit_ingress("src:zzz", 0.0) == "reject"


class TestTraceEvents:
    def test_level_events_carry_transition_fields(self):
        recorder = MemoryRecorder()
        controller = AdmissionController(ladder_config())
        controller.recorder = recorder
        controller.observe(1.05, 0.0)
        controller.observe(2.0, 1.0)
        controller.observe(0.1, 2.0)
        events = recorder.by_kind("admission_level")
        assert [e["level"] for e in events] == [
            "SHED_LOW", "REJECT", "SHED_HIGH",
        ]
        assert [e["prev"] for e in events] == [
            "NORMAL", "SHED_LOW", "REJECT",
        ]
        assert [e["cause"] for e in events] == [
            "adaptive", "adaptive", "recovery",
        ]
        assert all(not e["shadowed"] for e in events)

    def test_shed_events_name_stream_and_level(self):
        recorder = MemoryRecorder()
        controller = AdmissionController(ladder_config())
        controller.recorder = recorder
        controller.set_manual_level(AdmissionLevel.SHED_HIGH)
        for i in range(10):
            controller.admit_ingress("src:a", float(i))
        events = recorder.by_kind("shed")
        assert len(events) == controller.total_shed > 0
        assert all(e["pe"] == "src:a" for e in events)
        assert all(e["level"] == "SHED_HIGH" for e in events)


def aggressive_admission():
    """A config hot enough to exercise the full ladder on tiny runs."""
    return AdmissionConfig(
        slo_p95=0.2,
        queue_slo_fraction=0.3,
        pressure_window=0.25,
        min_dwell=0.2,
        retry_after=0.1,
    )


class TestEndToEndAdmission:
    def test_sim_run_with_admission_is_conserving(self):
        recorder = OracleRecorder(strict=False)
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(
                warmup=0.0,
                seed=3,
                dt=0.02,
                buffer_size=8,
                admission=aggressive_admission(),
            ),
            recorder=recorder,
        )
        recorder.attach_plane(system.plane)
        report = system.run(3.0)
        assert recorder.finalize() == []
        assert check_conservation(system) == []
        assert system.admission is not None
        assert system.admission.ticks > 0
        # Front-end refusals surface in the report and fold into the
        # per-kind drop breakdown without double counting.
        assert report.source_rejections >= (
            system.admission.total_shed + system.admission.total_rejected
        )
        drops = report.drops_by_kind
        assert drops["buffer_overflow"] + drops["flushed"] + drops.get(
            "shed", 0
        ) == report.buffer_drops

    def test_report_counters_match_controller(self):
        system = SimulatedSystem(
            small_topology(),
            AcesPolicy(),
            config=SystemConfig(
                warmup=0.0,
                seed=3,
                dt=0.02,
                buffer_size=8,
                admission=aggressive_admission(),
            ),
        )
        report = system.run(3.0)
        admission = system.admission
        drops = report.drops_by_kind
        assert drops["admission_shed"] == admission.total_shed
        assert drops["admission_rejected"] == admission.total_rejected
        # Every per-stream decision is one generated offer accounted for.
        for pe_id, counts in admission.counters().items():
            assert counts["admitted"] >= 0
            total = counts["admitted"] + counts["shed"] + counts["rejected"]
            assert total == admission.streams[pe_id].decisions


class TestScriptedParity:
    """Identical pressure/offer scripts, two substrates, one decision log."""

    def build_pair(self):
        topology = small_topology(seed=3)
        config = aggressive_admission()
        system = SimulatedSystem(
            topology,
            AcesPolicy(),
            config=SystemConfig(
                buffer_size=12, dt=0.02, seed=5, admission=config
            ),
        )
        runtime = SPCRuntime(
            topology,
            AcesPolicy(),
            config=RuntimeConfig(buffer_size=12, dt=0.02, seed=5,
                                 admission=config),
        )
        return system, runtime

    @staticmethod
    def drive(controller):
        """One scripted pressure walk with interleaved ingress offers."""
        log = []
        now = 0.0
        streams = sorted(controller.streams)
        assert streams, "substrate bound no ingress streams"
        for step in range(60):
            pressure = [0.1, 0.9, 1.5, 2.2, 0.6][step % 5]
            controller.observe(pressure, now)
            log.append((round(now, 3), int(controller.effective_level)))
            for offer, pe_id in enumerate(streams):
                verdict = controller.admit_ingress(
                    pe_id, now + 0.001 * offer
                )
                log.append((pe_id, verdict))
            now += 0.11
        log.append(("transitions", controller.ladder.transitions))
        log.append(("counters", controller.counters()))
        return log

    def test_decision_sequences_are_identical(self):
        system, runtime = self.build_pair()
        assert system.admission is not None
        assert runtime.admission is not None
        # Both substrates bound the same ingress stream ids.
        assert sorted(system.admission.streams) == sorted(
            runtime.admission.streams
        )
        assert self.drive(system.admission) == self.drive(runtime.admission)

    def test_operator_overrides_are_parity_safe(self):
        system, runtime = self.build_pair()

        def drive(controller):
            log = []
            controller.observe(1.2, 0.0)
            controller.set_manual_level(AdmissionLevel.REJECT)
            log.append(controller.admit_ingress(
                sorted(controller.streams)[0], 0.1
            ))
            controller.set_kill_switch(True)
            controller.observe(0.0, 0.5)
            log.append(int(controller.effective_level))
            controller.set_kill_switch(False)
            controller.set_manual_level(None)
            log.append(int(controller.effective_level))
            return log

        assert drive(system.admission) == drive(runtime.admission)
