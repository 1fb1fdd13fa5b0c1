"""Tests for the opt-in step profiler (``repro.perf``)."""

import numpy as np
import pytest

from repro.control.fused import fused_kernel, unavailable_reason
from repro.perf import STAGES, StageStats, StepProfiler
from repro.platform import soc as soc_module
from repro.platform.soc import ExynosSoC, SoCConfig
from repro.workloads import x264


def make_soc(seed: int = 11) -> ExynosSoC:
    return ExynosSoC(qos_app=x264(), config=SoCConfig(seed=seed))


class TestAttachDetach:
    def test_detached_profiler_leaves_no_instance_hooks(self):
        """Zero overhead when detached: every hook is an instance
        attribute, so after detach() the objects carry none and the hot
        path runs the original class methods."""
        soc = make_soc()
        original_app = soc.qos_app
        profiler = StepProfiler().attach(soc)
        assert profiler.attached
        soc.step()

        profiler.detach()
        assert not profiler.attached
        for name in ("step", "_plant_tick", "_qos_rate", "_cluster_telemetry"):
            assert name not in soc.__dict__
        for name in ("place", "place_idle"):
            assert name not in soc.scheduler.__dict__
        assert soc.qos_app is original_app

    def test_detach_survives_external_rebinding(self):
        soc = make_soc()
        profiler = StepProfiler().attach(soc)
        replacement = lambda: None  # noqa: E731
        soc.step = replacement
        profiler.detach()
        assert soc.__dict__.get("step") is replacement

    def test_attach_manager_hooks_supervisor_when_present(self):
        class FakeManager:
            def control(self, telemetry):
                return self._supervise()

            def _supervise(self):
                return "ok"

        manager = FakeManager()
        profiler = StepProfiler()
        profiler.attach_manager(manager)
        assert manager.control(None) == "ok"
        assert profiler.stats["controller"].calls == 1
        assert profiler.stats["supervisor"].calls == 1
        profiler.detach()
        assert "control" not in manager.__dict__


class TestCounting:
    def test_stage_call_counts_per_step(self):
        # The compiled tick is one stage: the rate and the sensor reads
        # run inside its one kernel call.
        if fused_kernel() is None:
            pytest.skip(unavailable_reason())
        soc = make_soc()
        profiler = StepProfiler().attach(soc)
        assert soc.tick_reason is None  # the hooks keep the compiled tick
        steps = 8
        for _ in range(steps):
            soc.step()
        profiler.detach()
        assert profiler.stats["step_total"].calls == steps
        assert profiler.stats["tick_kernel"].calls == steps
        assert profiler.stats["sensors"].calls == 0
        assert profiler.stats["scheduler"].calls == steps
        assert profiler.stats["workload"].calls == 0
        assert profiler.stats["step_total"].total_s > 0.0

    def test_python_tick_call_counts_per_step(self, monkeypatch):
        monkeypatch.setattr(soc_module, "fused_kernel", lambda: None)
        soc = make_soc()
        profiler = StepProfiler().attach(soc)
        steps = 8
        for _ in range(steps):
            soc.step()
        profiler.detach()
        assert soc.tick_reason is not None
        assert profiler.stats["step_total"].calls == steps
        assert profiler.stats["tick_kernel"].calls == 0
        assert profiler.stats["sensors"].calls == 2 * steps  # big + little
        assert profiler.stats["scheduler"].calls == steps
        assert profiler.stats["workload"].calls == steps

    def test_mean_us_handles_zero_calls(self):
        assert StageStats().mean_us == 0.0


class TestBitIdentity:
    def test_profiled_run_matches_unprofiled_run(self):
        plain = make_soc(seed=23)
        profiled = make_soc(seed=23)
        profiler = StepProfiler().attach(profiled)
        for _ in range(30):
            a = plain.step()
            b = profiled.step()
            assert a.qos_rate == b.qos_rate
            assert a.big.power_w == b.big.power_w
            assert np.array_equal(a.big.per_core_ips, b.big.per_core_ips)
            assert np.array_equal(
                a.little.per_core_ips, b.little.per_core_ips
            )
        profiler.detach()

    def test_run_after_detach_matches_never_profiled(self):
        plain = make_soc(seed=29)
        cycled = make_soc(seed=29)
        profiler = StepProfiler().attach(cycled)
        profiler.detach()
        for _ in range(10):
            a = plain.step()
            b = cycled.step()
            assert a.qos_rate == b.qos_rate
            assert a.big.power_w == b.big.power_w


class TestReport:
    def test_report_lists_every_stage(self):
        soc = make_soc()
        profiler = StepProfiler().attach(soc)
        for _ in range(3):
            soc.step()
        profiler.detach()
        text = profiler.report(steps_per_s=1234.5)
        for stage in STAGES:
            assert stage in text
        assert "1234" in text
        assert "us/call" in text

    def test_report_with_no_samples_does_not_divide_by_zero(self):
        text = StepProfiler().report()
        assert "step_total" in text


class TestCLI:
    def test_profile_command_prints_hotspot_table(self, capsys):
        from repro.perf.cli import main

        code = main(["profile", "spectr", "--duration", "1.5"])
        out = capsys.readouterr().out
        assert code == 0
        for stage in STAGES:
            assert stage in out
        assert "SPECTR" in out
        assert "steps/s" in out

    @pytest.mark.parametrize("manager", ["spectr", "fs"])
    def test_profile_command_prints_each_servo_path(self, manager, capsys):
        from repro.control.fused import fused_kernel
        from repro.perf.cli import main

        main(["profile", manager, "--duration", "1.5"])
        out = capsys.readouterr().out
        # The servo table runs from its header to the first blank line;
        # the noise table follows it.
        table = out[out.index("fused_reason") :].split("\n\n")[0]
        table = table.splitlines()[1:]
        names = ["fs-4x2"] if manager == "fs" else ["big-mimo", "little-mimo"]
        assert [line.split()[0] for line in table] == names
        expected = "compiled" if fused_kernel() is not None else "numpy"
        assert all(line.split()[1] == expected for line in table), table

    def test_profile_command_prints_the_fleet_noise_path(self, capsys):
        from repro.control.fused import noise_fill_reason
        from repro.perf.cli import main

        main(["profile", "mm-perf", "--duration", "1.5"])
        out = capsys.readouterr().out
        table = out[out.index("noise ") :].split("\n\n")[0].splitlines()
        assert table[0].split() == ["noise", "path", "fused_reason"]
        assert len(table) == 2 and table[1].startswith("fleet refill ")
        reason = noise_fill_reason()
        if reason is None:
            assert table[1].split()[2:] == ["compiled", "-"]
        else:
            assert table[1].split()[2] == "numpy"
            assert table[1].endswith(reason)

    def test_profile_command_prints_the_tick_path(self, capsys):
        from repro.perf.cli import main

        main(["profile", "mm-pow", "--duration", "1.5"])
        out = capsys.readouterr().out
        # The tick table comes last, after the noise table.
        start = out.index("tick ", out.index("noise "))
        table = out[start:].strip().splitlines()
        assert table[0].split() == ["tick", "path", "fused_reason"]
        rows = [line.split() for line in table[1:]]
        assert [row[0] for row in rows] == ["soc", "fleet"]
        if fused_kernel() is None:
            reason = unavailable_reason()
            assert [row[1] for row in rows] == ["python", "numpy"]
            assert all(line.endswith(reason) for line in table[1:])
        else:
            assert all(row[1:] == ["compiled", "-"] for row in rows), rows

    def test_unknown_manager_is_rejected(self):
        from repro.perf.cli import main

        with pytest.raises(SystemExit, match="unknown manager"):
            main(["profile", "nope"])

    def test_unknown_workload_is_rejected(self):
        from repro.perf.cli import main

        with pytest.raises(SystemExit, match="unknown workload"):
            main(["profile", "spectr", "--workload", "nope"])
