"""Differential harness: the batched fleet kernel vs the scalar oracle.

The fleet kernel (:mod:`repro.platform.fleet`) advances N devices per
array op; its contract is that row ``i`` of a fleet run is
**bit-identical** to an independent scalar :class:`ExynosSoC` run
seeded with ``derive_seed(base, "fleet", i)``.  These tests enforce
that contract at every layer:

* platform: hypothesis-driven random actuation (DVFS + hotplug + idle
  ticks) across fleet sizes, workloads, background mixes and seeds,
  with mid-run noise-chunk refills;
* managers: every paper manager's closed-loop fleet run equals the
  scalar runner row for row, gain switches included;
* supervisor: hypothesis-drawn telemetry programs drive N scalar
  SPECTR supervisors and one array supervisor; state, both power
  references and both gain sets must match after every invocation;
* exec: faulted rows spliced by :func:`execute_fleet` equal scalar
  fault-injected jobs, and ablation-overridden SPECTR fleet jobs equal
  overridden scalar jobs;
* guards: configurations the kernel does not reproduce (idle
  insertion, >= 8 cores, fault layers, ineligible sensors) are
  rejected loudly instead of silently diverging.

Plus pinned regressions for latent scalar/batched divergences found
while building the kernel: NaN frequency snapping and banker's-rounding
hotplug.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.control import batch
from repro.control.batch import BatchedLQGServo
from repro.control.fused import fused_kernel, unavailable_reason
from repro.control.lqg import LQGServoController
from repro.exec.fleet_jobs import FleetScenarioJob, execute_fleet
from repro.exec.job import FaultSpec, ScenarioJob, derive_seed
from repro.exec.scenario_jobs import execute
from repro.experiments.figures import (
    MANAGER_NAMES,
    case_study_supervisor,
    identified_systems,
    manager_factory,
)
from repro.experiments.fleet import fleet_manager_factory, run_fleet_scenario
from repro.experiments.runner import run_scenario
from repro.managers.base import ManagerGoals
from repro.managers.fleet import FLEET_GAIN_NAMES, FleetSPECTR
from repro.managers.mimo import (
    POWER_GAINS,
    QOS_GAINS,
    build_gain_library,
    cluster_actuator_limits,
)
from repro.managers.spectr import ACTION_PRIORITIES, SPECTRManager
from repro.experiments.scenario import three_phase_scenario
from repro.platform.faults import ActuatorFaultModel, inject_actuator_fault
from repro.platform.fleet import (
    FleetClusterTelemetry,
    FleetPlatform,
    FleetTelemetry,
)
from repro.platform.opp import OPP, OPPTable, big_cluster_opps
from repro.platform.sensors import NoisySensor
from repro.platform.soc import (
    ClusterTelemetry,
    ExynosSoC,
    PlatformError,
    SoCConfig,
    Telemetry,
    fleet_sensor_layout,
)
from repro.workloads import canneal, x264

TRACE_FIELDS = (
    "times",
    "qos",
    "qos_reference",
    "chip_power",
    "power_reference",
    "big_power",
    "little_power",
    "big_frequency",
    "big_cores",
    "little_frequency",
    "little_cores",
)
CLUSTER_FIELDS = (
    "frequency_ghz",
    "voltage_v",
    "active_cores",
    "busy_core_equivalents",
    "power_w",
    "ips",
)

_WORKLOADS = (lambda: None, x264, canneal)


def _row_seeds(base_seed: int, n: int) -> list[int]:
    return [derive_seed(base_seed, "fleet", i) for i in range(n)]


def _assert_cluster_equal(fleet_cluster, scalar_cluster, row, tick, name):
    for field in CLUSTER_FIELDS:
        batched = getattr(fleet_cluster, field)[row]
        scalar = getattr(scalar_cluster, field)
        assert float(batched) == float(scalar), (
            f"tick {tick} row {row} {name}.{field}: "
            f"batched {batched!r} != scalar {scalar!r}"
        )


class TestPlatformDifferential:
    """Random-actuation property: every tick, every row, every field."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 5),
        base_seed=st.integers(0, 2**31 - 1),
        workload_id=st.integers(0, len(_WORKLOADS) - 1),
        background_count=st.integers(0, 4),
        drive_seed=st.integers(0, 2**31 - 1),
        ticks=st.integers(5, 30),
    )
    def test_fleet_rows_match_scalar_devices(
        self, n, base_seed, workload_id, background_count, drive_seed, ticks
    ):
        make_workload = _WORKLOADS[workload_id]
        scenario = three_phase_scenario(background_tasks=background_count)
        seeds = _row_seeds(base_seed, n)
        fleet = FleetPlatform(
            qos_app=make_workload(),
            background=scenario.background_tasks(),
            seeds=seeds,
            # A small chunk forces mid-run standard_normal refills, so
            # ziggurat stream continuity across chunks is exercised.
            noise_chunk_ticks=7,
        )
        socs = [
            ExynosSoC(
                qos_app=make_workload(),
                background=scenario.background_tasks(),
                config=SoCConfig(seed=seed),
            )
            for seed in seeds
        ]
        drive = np.random.default_rng(drive_seed)
        for tick in range(ticks):
            fleet_telemetry = fleet.step()
            for row, soc in enumerate(socs):
                telemetry = soc.step()
                if np.ndim(fleet_telemetry.qos_rate):
                    batched_qos = float(fleet_telemetry.qos_rate[row])
                else:
                    # No QoS app: both sides report a plain 0.0.
                    batched_qos = float(fleet_telemetry.qos_rate)
                assert batched_qos == float(telemetry.qos_rate), (
                    f"tick {tick} row {row} qos_rate"
                )
                assert float(fleet_telemetry.chip_power_w[row]) == float(
                    telemetry.chip_power_w
                ), f"tick {tick} row {row} chip_power_w"
                _assert_cluster_equal(
                    fleet_telemetry.big, telemetry.big, row, tick, "big"
                )
                _assert_cluster_equal(
                    fleet_telemetry.little,
                    telemetry.little,
                    row,
                    tick,
                    "little",
                )
            # Random actuation, identical requests on both sides; some
            # ticks are idle (no actuation at all).
            if drive.random() < 0.7:
                big_freq = drive.uniform(0.1, 2.3, n)
                little_freq = drive.uniform(0.1, 1.7, n)
                big_cores = drive.uniform(0.5, 4.5, n)
                little_cores = drive.uniform(0.5, 4.5, n)
                big_mask = drive.random(n) < 0.5
                little_mask = drive.random(n) < 0.5
                fleet.big.set_frequency(big_freq)
                fleet.little.set_frequency(little_freq)
                fleet.big.apply_core_requests(big_cores, big_mask)
                fleet.little.apply_core_requests(little_cores, little_mask)
                for row, soc in enumerate(socs):
                    soc.big.set_frequency(float(big_freq[row]))
                    soc.little.set_frequency(float(little_freq[row]))
                    if big_mask[row]:
                        soc.big.set_active_cores(float(big_cores[row]))
                    if little_mask[row]:
                        soc.little.set_active_cores(float(little_cores[row]))
                for row, soc in enumerate(socs):
                    assert float(fleet.big.frequency[row]) == float(
                        soc.big.frequency_ghz
                    ), f"tick {tick} row {row} big frequency actuation"
                    assert float(fleet.big.active[row]) == float(
                        soc.big.active_cores
                    ), f"tick {tick} row {row} big hotplug actuation"
                    assert float(fleet.little.frequency[row]) == float(
                        soc.little.frequency_ghz
                    ), f"tick {tick} row {row} little frequency actuation"
                    assert float(fleet.little.active[row]) == float(
                        soc.little.active_cores
                    ), f"tick {tick} row {row} little hotplug actuation"


@pytest.fixture(scope="module")
def systems():
    return identified_systems()


class TestManagerDifferential:
    """Closed-loop equivalence for every paper manager."""

    @pytest.mark.parametrize("manager", MANAGER_NAMES)
    def test_fleet_run_matches_scalar_rows(self, manager, systems):
        scenario = three_phase_scenario(phase_duration_s=1.0)
        workload = x264()
        seeds = _row_seeds(2018, 3)
        fleet_trace = run_fleet_scenario(
            fleet_manager_factory(manager, systems),
            workload,
            scenario,
            seeds=seeds,
        )
        for index, seed in enumerate(seeds):
            scalar = run_scenario(
                manager_factory(manager, systems),
                x264(),
                scenario,
                seed=seed,
            )
            row = fleet_trace.row(index)
            assert row.gain_sets == scalar.gain_sets, (manager, index)
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(row, field), getattr(scalar, field)
                ), f"{manager} row {index} {field}"


class TestFaultedRowSplice:
    """Faulted devices run the scalar oracle and splice bit-identically."""

    @pytest.mark.parametrize(
        "fault",
        [
            FaultSpec(kind="stuck", target="little", start_s=0.4,
                      duration_s=1.2),
            FaultSpec(kind="reject", target="big", start_s=0.5,
                      duration_s=1.0, probability=0.7),
        ],
        ids=["sensor-stuck", "actuator-reject"],
    )
    def test_execute_fleet_matches_scalar_jobs(self, fault, systems):
        scenario = three_phase_scenario(phase_duration_s=1.0)
        job = FleetScenarioJob(
            manager="MM-Pow",
            scenario=scenario,
            seed=2018,
            n_devices=3,
            device_faults=((1, fault),),
        )
        fleet_trace = execute_fleet(job)
        for index, seed in enumerate(job.seeds()):
            scalar = execute(
                ScenarioJob(
                    manager="MM-Pow",
                    scenario=scenario,
                    seed=seed,
                    fault=fault if index == 1 else None,
                )
            )
            row = fleet_trace.row(index)
            assert row.gain_sets == scalar.gain_sets, index
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(row, field), getattr(scalar, field)
                ), f"row {index} {field}"


class TestSPECTROverrides:
    """Ablation-overridden fleet SPECTR jobs equal overridden scalar jobs."""

    @pytest.mark.parametrize(
        "overrides",
        [
            (("enable_gain_scheduling", False),),
            (("enable_reference_regulation", False),),
            (("supervisor_period_epochs", 1),),
            (("supervisor_period_epochs", 3),),
        ],
        ids=["no-gain-scheduling", "no-reference-regulation", "period-1",
             "period-3"],
    )
    def test_execute_fleet_matches_scalar_jobs(self, overrides, systems):
        scenario = three_phase_scenario(phase_duration_s=1.0)
        job = FleetScenarioJob(
            manager="SPECTR",
            scenario=scenario,
            seed=2018,
            n_devices=3,
            overrides=overrides,
        )
        fleet_trace = execute_fleet(job)
        for index, seed in enumerate(job.seeds()):
            scalar = execute(
                ScenarioJob(
                    manager="SPECTR",
                    scenario=scenario,
                    seed=seed,
                    overrides=overrides,
                )
            )
            row = fleet_trace.row(index)
            assert row.gain_sets == scalar.gain_sets, index
            for field in TRACE_FIELDS:
                assert np.array_equal(
                    getattr(row, field), getattr(scalar, field)
                ), f"row {index} {field}"


# Telemetry regimes for the supervisor-layer differential test.
_CHIP_BANDS = (0.5, 0.8, 0.98, 1.1)  # x budget: around 0.72 and 1.02
_QOS_SIDES = (0.9, 1.0)  # x reference: either side of qos_tolerance 0.97
_LITTLE_IPS = (0.05, 0.1, 0.2, 0.3, 0.6)  # at and around 0.1 and 0.3
# (budget W, QoS ref); 0.8 W is tight enough for the reference floors
# to bind.
_GOALS = ((5.0, 60.0), (3.5, 30.0), (6.0, 45.0), (0.8, 20.0))
_MAX_ROWS = 4

# (invocations, per-row (band, QoS side, little IPS), goal change or None)
_segments = st.tuples(
    st.integers(1, 12),
    st.lists(
        st.tuples(
            st.sampled_from(_CHIP_BANDS),
            st.sampled_from(_QOS_SIDES),
            st.sampled_from(_LITTLE_IPS),
        ),
        min_size=_MAX_ROWS,
        max_size=_MAX_ROWS,
    ),
    st.one_of(st.none(), st.sampled_from(_GOALS)),
)
_programs = st.tuples(
    st.integers(1, _MAX_ROWS),
    st.lists(_segments, min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)

# Walks every action: QoS-mode regulation of both clusters at 6 W (the
# big reference climbs to its headroom cap, so the little raise gets a
# slot), a capping episode whose budget is cut to 3.5 W before it
# escalates (the hard drop then starts from a little reference above
# the new cap), its release, and finally idle little cores with the big
# cluster well under its reference.
_ALL_ACTIONS_PROGRAM = (
    2,
    [
        (10, [(0.8, 0.9, 0.6)] * _MAX_ROWS, (6.0, 45.0)),
        (4, [(1.1, 1.0, 0.2)] * _MAX_ROWS, None),
        (8, [(1.1, 1.0, 0.2)] * _MAX_ROWS, (3.5, 30.0)),
        (4, [(0.5, 1.0, 0.2)] * _MAX_ROWS, (6.0, 45.0)),
        (4, [(0.5, 1.0, 0.05)] * _MAX_ROWS, None),
    ],
    0,
)


def _fleet_cluster(power_w, ips):
    zeros = np.zeros_like(power_w)
    return FleetClusterTelemetry(zeros, zeros, zeros, zeros, power_w, ips)


def _scalar_cluster(power_w, ips):
    return ClusterTelemetry(0.0, 0.0, 0, 0.0, power_w, ips, np.zeros(4))


def _drive_supervisors(systems, program) -> set[str]:
    """Run one telemetry program through N scalar supervisors and one
    fleet supervisor, comparing every row after every invocation.

    Returns the set of actions the scalar supervisors executed.
    """
    n, segments, noise_seed = program
    goals = ManagerGoals(qos_reference=60.0, power_budget_w=5.0)
    supervisor = case_study_supervisor()
    kwargs = dict(
        big_system=systems.big,
        little_system=systems.little,
        verified_supervisor=supervisor,
    )
    fleet = FleetSPECTR(FleetPlatform(seeds=list(range(n))), goals, **kwargs)
    scalars = [
        SPECTRManager(ExynosSoC(config=SoCConfig(seed=row)), goals, **kwargs)
        for row in range(n)
    ]
    rng = np.random.default_rng(noise_seed)
    fired: set[str] = set()
    invocation = 0
    for length, regimes, goal_change in segments:
        if goal_change is not None:
            budget_w, qos_reference = goal_change
            for manager in (fleet, *scalars):
                manager.set_power_budget(budget_w)
                manager.set_qos_reference(qos_reference)
        band, qos_side, little_ips = (
            np.array(column) for column in zip(*regimes[:n])
        )
        for _ in range(length):
            budget_w = fleet.goals.power_budget_w
            jitter = rng.uniform(0.98, 1.02, (3, n))
            chip_w = band * budget_w * jitter[0]
            little_w = chip_w * 0.05 * jitter[1]
            big_w = chip_w - little_w
            qos = qos_side * fleet.goals.qos_reference * jitter[2]
            time_s = invocation * 0.1
            fleet._supervise(
                FleetTelemetry(
                    time_s=time_s,
                    qos_rate=qos,
                    qos_raw=qos,
                    big=_fleet_cluster(big_w, np.zeros(n)),
                    little=_fleet_cluster(little_w, little_ips),
                    chip_power_w=big_w + little_w,
                )
            )
            for row, scalar in enumerate(scalars):
                telemetry = Telemetry(
                    time_s=time_s,
                    qos_rate=float(qos[row]),
                    qos_raw=float(qos[row]),
                    big=_scalar_cluster(float(big_w[row]), 0.0),
                    little=_scalar_cluster(
                        float(little_w[row]), float(little_ips[row])
                    ),
                )
                scalar._telemetry = telemetry  # as _control sets it
                scalar._supervise(telemetry)
                fired.update(scalar.engine.trace[-1].executed)
                where = f"invocation {invocation} row {row}"
                assert (
                    fleet.encoded.state_names[fleet.state[row]]
                    == scalar.engine.state.name
                ), where
                assert (
                    float(fleet.big_power_ref_w[row])
                    == scalar.big_power_ref_w
                ), where
                assert (
                    float(fleet.little_power_ref_w[row])
                    == scalar.little_power_ref_w
                ), where
                assert (
                    FLEET_GAIN_NAMES[fleet.big_servo.gain_ids[row]]
                    == scalar.big_mimo.active_gains
                ), where
                assert (
                    FLEET_GAIN_NAMES[fleet.little_servo.gain_ids[row]]
                    == scalar.little_mimo.active_gains
                ), where
            invocation += 1
    return fired


class TestSupervisorDifferential:
    """The array supervisor equals N scalar supervisors, invocation by
    invocation: state, both power references, both gain sets."""

    def test_supervise_matches_scalar_rows(self, systems):
        fired: set[str] = set()

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(program=_programs)
        @example(program=_ALL_ACTIONS_PROGRAM)
        def check(program):
            fired.update(_drive_supervisors(systems, program))

        check()
        assert fired == set(ACTION_PRIORITIES), sorted(
            set(ACTION_PRIORITIES) - fired
        )


class TestKernelGuards:
    """Everything the kernel does not reproduce is rejected loudly."""

    def test_idle_insertion_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        soc.big.set_idle_fraction(0, 0.5)
        with pytest.raises(PlatformError, match="idle insertion"):
            fleet_sensor_layout(soc.big)

    def test_eight_core_cluster_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1, cores_per_cluster=8))
        with pytest.raises(PlatformError, match="8 cores"):
            fleet_sensor_layout(soc.big)

    def test_actuator_fault_layer_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        inject_actuator_fault(
            soc,
            "big",
            ActuatorFaultModel(kind="reject", start_s=0.0, end_s=1.0),
            seed=1,
        )
        with pytest.raises(PlatformError, match="fault layers"):
            fleet_sensor_layout(soc.big)

    def test_zero_noise_sensor_rejected(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        soc.big.power_sensor = NoisySensor(
            "big-power", noise_fraction=0.0
        )
        with pytest.raises(PlatformError, match="NoisySensor"):
            fleet_sensor_layout(soc.big)

    def test_subclassed_sensor_rejected(self):
        class WrappedSensor(NoisySensor):
            pass

        soc = ExynosSoC(config=SoCConfig(seed=1))
        soc.big.power_sensor = WrappedSensor(
            "big-power", noise_fraction=0.015
        )
        with pytest.raises(PlatformError, match="NoisySensor"):
            fleet_sensor_layout(soc.big)

    def test_fleet_platform_rejects_ineligible_config(self):
        with pytest.raises(PlatformError, match="8 cores"):
            FleetPlatform(
                seeds=[1, 2],
                config=SoCConfig(seed=1, cores_per_cluster=8),
            )


class TestSnapRegressions:
    """Pinned scalar/batched divergences found while building the kernel."""

    def test_scalar_snap_rejects_nan(self):
        # bisect (scalar) and searchsorted (batched) place NaN at
        # opposite ends of the table; both paths now raise instead.
        table = big_cluster_opps()
        with pytest.raises(ValueError, match="NaN"):
            table.snap(float("nan"))

    def test_snap_indices_rejects_nan(self):
        table = big_cluster_opps()
        with pytest.raises(ValueError, match="NaN"):
            table.snap_indices(np.array([1.0, float("nan")]))

    def test_single_point_table_snap_indices(self):
        table = OPPTable([OPP(1.0, 1.0)], name="single")
        idx = table.snap_indices(np.array([0.2, 1.0, 5.0]))
        assert np.array_equal(idx, np.zeros(3, dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(
        requested=st.one_of(
            st.floats(-1.0, 4.0, allow_nan=False),
            # Exact table points and midpoints, where tie-breaking and
            # clamp branches live.
            st.sampled_from(
                [0.2, 0.25, 1.0, 1.05, 1.1, 1.95, 2.0, 2.05, 1e-12, 0.0]
            ),
        )
    )
    def test_snap_indices_matches_scalar_snap(self, requested):
        table = big_cluster_opps()
        scalar = table.snap(requested)
        index = int(table.snap_indices(np.array([requested]))[0])
        assert table.points[index] is scalar


class TestHotplugRoundingRegression:
    """Batched hotplug must reproduce banker's rounding exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        requested=st.one_of(
            st.floats(-2.0, 8.0, allow_nan=False),
            # Half-integers: where round-half-to-even differs from
            # round-half-up.
            st.sampled_from([0.5, 1.5, 2.5, 3.5, 4.5, 5.5]),
        )
    )
    def test_apply_core_requests_matches_set_active_cores(self, requested):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        fleet = FleetPlatform(seeds=[1])
        scalar = soc.big.set_active_cores(float(requested))
        fleet.big.apply_core_requests(
            np.array([requested]), np.array([True])
        )
        assert float(fleet.big.active[0]) == float(scalar)

    def test_half_core_requests_round_to_even(self):
        soc = ExynosSoC(config=SoCConfig(seed=1))
        assert soc.big.set_active_cores(2.5) == 2
        assert soc.big.set_active_cores(3.5) == 4
        fleet = FleetPlatform(seeds=[1, 2])
        fleet.big.apply_core_requests(
            np.array([2.5, 3.5]), np.array([True, True])
        )
        assert fleet.big.active.tolist() == [2.0, 4.0]


def _servo_pair(system, n_rows):
    """A batched servo and n_rows scalar servos over the same palette."""
    library = build_gain_library(system, integral_weight=0.08)
    palette = [library.get(QOS_GAINS), library.get(POWER_GAINS)]
    soc = ExynosSoC(config=SoCConfig(seed=1))
    limits = cluster_actuator_limits(soc.big)
    op = system.operating_point
    batched = BatchedLQGServo(palette, op, limits, n_rows)
    scalars = [
        LQGServoController(palette[0], op, limits) for _ in range(n_rows)
    ]
    return batched, scalars, palette


@pytest.fixture(params=["compiled", "numpy"])
def step_path(request, monkeypatch):
    """The batched servo's step: the compiled kernel, or the numpy
    reference step with the kernel hidden from ``repro.control.batch``
    (the scalar servos keep their own default path)."""
    if request.param == "numpy":
        monkeypatch.setattr(batch, "fused_kernel", lambda: None)
    elif fused_kernel() is None:
        pytest.skip(unavailable_reason())
    return request.param


def _assert_step_path(batched, step_path):
    assert (batched._fused is not None) == (step_path == "compiled"), (
        batched.fused_reason
    )


def _assert_state_equal(batched, scalar, row, tick):
    for name, got, want in (
        ("xhat", batched.X[row], scalar._xhat),
        ("z", batched.Z[row], scalar._z),
        ("du_prev", batched.DU[row], scalar._du_prev),
        ("u_prev", batched.U_prev[row], scalar._u_prev),
    ):
        assert np.array_equal(got, want), (name, row, tick)


class TestServoStateDifferential:
    """Internal estimator/integrator state must match bit-for-bit.

    Trace-level equivalence is too forgiving: a sub-ulp drift in the
    estimator state survives OPP snapping and core rounding for most
    seeds, so closed-loop runs can pass while the batched algebra is
    subtly wrong (a row-stacked [C; A] matvec did exactly that — the
    stacked dgemv blocks row reductions differently from the separate
    products).  These tests drive both servos with identical *random*
    measurements and compare every piece of internal state after each
    step, which fails loudly on any such drift.  Each case runs on both
    batched step paths (``step_path``).
    """

    # 33 rows: four full 8-row lane blocks and a remainder row.
    @pytest.mark.parametrize("n_rows", [1, 5, 33])
    @pytest.mark.parametrize("which", ["big", "little"])
    def test_uniform_rows_match_scalar_state_bitwise(
        self, which, n_rows, systems, step_path
    ):
        system = getattr(systems, which)
        batched, scalars, _ = _servo_pair(system, n_rows)
        _assert_step_path(batched, step_path)
        op = system.operating_point
        reference = [float(op.y[0] * 1.1), float(op.y[1] * 0.9)]
        batched.set_reference(reference)
        for scalar in scalars:
            scalar.set_reference(reference)
        rng = np.random.default_rng(2018)
        for tick in range(120):
            measured = op.y + op.y_scale * rng.standard_normal((n_rows, 2))
            u_batch = batched.step(measured)
            for row, scalar in enumerate(scalars):
                u_scalar = scalar.step(measured[row])
                assert np.array_equal(u_batch[row], u_scalar), (row, tick)
                _assert_state_equal(batched, scalar, row, tick)

    def test_fs_rows_match_scalar_state_bitwise(self, systems, step_path):
        # FS's identified L is F-ordered.  Both servos read the same
        # contiguous gain pack (when the scalar step used BLAS, it
        # reduced L @ v over the F-ordered L in another order).
        soc = ExynosSoC(config=SoCConfig(seed=1))
        template = manager_factory("FS", systems)(
            soc, ManagerGoals(60.0, 5.0)
        ).controller
        gains, limits = template.gains, template.limits
        op = template.operating_point
        batched = BatchedLQGServo([gains], op, limits, 3)
        _assert_step_path(batched, step_path)
        scalars = [LQGServoController(gains, op, limits) for _ in range(3)]
        rng = np.random.default_rng(18)
        for tick in range(120):
            scale = (0.5, 3.0, 50.0)[tick % 3]
            measured = op.y + op.y_scale * scale * rng.standard_normal((3, 2))
            u_batch = batched.step(measured)
            for row, scalar in enumerate(scalars):
                u_scalar = scalar.step(measured[row])
                assert np.array_equal(u_batch[row], u_scalar), (row, tick)
                _assert_state_equal(batched, scalar, row, tick)

    def test_mixed_gain_rows_match_scalar_state_bitwise(
        self, systems, step_path
    ):
        batched, scalars, palette = _servo_pair(systems.big, 4)
        _assert_step_path(batched, step_path)
        op = systems.big.operating_point
        rng = np.random.default_rng(7)
        for tick in range(90):
            if tick == 30:  # rows 1 and 3 onto the power gain set
                batched.switch_rows(np.array([1, 3]), 1)
                scalars[1].switch_gains(palette[1])
                scalars[3].switch_gains(palette[1])
            if tick == 60:  # row 3 back; batch stays mixed
                batched.switch_rows(np.array([3]), 0)
                scalars[3].switch_gains(palette[0])
            measured = op.y + op.y_scale * rng.standard_normal((4, 2))
            u_batch = batched.step(measured)
            for row, scalar in enumerate(scalars):
                u_scalar = scalar.step(measured[row])
                assert np.array_equal(u_batch[row], u_scalar), (row, tick)
                _assert_state_equal(batched, scalar, row, tick)

    @pytest.mark.parametrize(
        "pattern",
        ["uniform", "odd-lane", "alternating", "blocks", "random", "switch"],
    )
    @pytest.mark.parametrize("n_rows", [1, 7, 8, 9, 17, 1000])
    @pytest.mark.parametrize("manager", ["MM-Perf", "FS"])
    def test_fused_step_matches_numpy_per_row_gains(
        self, manager, n_rows, pattern, systems
    ):
        # The compiled step reads each row's gain id: uniform 8-lane
        # blocks step lane-parallel, mixed blocks and the remainder row
        # by row.  Both must equal the numpy reference step.
        platform = FleetPlatform(seeds=[1, 2])
        fleet = fleet_manager_factory(manager, systems)(
            platform, ManagerGoals(60.0, 5.0)
        )
        template = getattr(fleet, "controller", None) or fleet.big_servo
        if manager == "FS":
            library = build_gain_library(
                systems.full,
                qos_outputs=(0,),
                power_outputs=(1,),
                integral_weight=0.05,
            )
        else:
            library = build_gain_library(systems.big, integral_weight=0.08)
        palette = [library.get(QOS_GAINS), library.get(POWER_GAINS)]
        assert [g.key for g in template.sets] == [
            g.fused_pack.key for g in palette
        ]

        def build():
            return BatchedLQGServo(
                palette,
                template.operating_point,
                template.limits,
                n_rows,
                anti_windup=template.anti_windup,
            )

        fused, numpy_servo = build(), build()
        if fused._fused is None:
            pytest.skip(fused.fused_reason)
        rng = np.random.default_rng(1300 + n_rows)
        rows = np.arange(n_rows)
        switch_at = {
            "uniform": {},
            "odd-lane": {0: rows[rows % 8 == 3]},
            "alternating": {0: rows[rows % 2 == 1]},
            # Whole 8-lane blocks alternate sets: uniform lane-parallel
            # blocks on different gain sets within one batch.
            "blocks": {0: rows[rows // 8 % 2 == 1]},
            "random": {0: rows[rng.random(n_rows) < 0.4]},
            "switch": {
                12: rows[rng.random(n_rows) < 0.5],
                24: rows[rng.random(n_rows) < 0.3],
            },
        }[pattern]
        op = template.operating_point
        p = op.y.size
        references = op.y * (1.0 + 0.2 * rng.standard_normal((n_rows, p)))
        for servo in (fused, numpy_servo):
            servo.references[...] = references
            servo.refresh_references()
        for tick in range(36):
            if tick in switch_at:
                # Later switches send rows back to set 0: still mixed.
                new_id = 1 if tick < 24 else 0
                for servo in (fused, numpy_servo):
                    servo.switch_rows(switch_at[tick], new_id)
            assert np.array_equal(fused.gain_ids, numpy_servo.gain_ids)
            scale = (0.5, 3.0, 50.0)[tick % 3]
            Y = op.y + op.y_scale * scale * rng.standard_normal((n_rows, p))
            u_fused = fused.step(Y).copy()
            u_numpy = numpy_servo._step_numpy(Y).copy()
            assert np.array_equal(u_fused, u_numpy), (tick, "u")
            for name in ("X", "Z", "DU", "U_prev"):
                assert np.array_equal(
                    getattr(fused, name), getattr(numpy_servo, name)
                ), (tick, name)
