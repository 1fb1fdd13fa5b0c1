"""Tests for the repo-specific AST lint rules."""

from repro.analysis.project import scan_source
from repro.analysis.findings import Severity

COLD = "src/repro/experiments/mod.py"
HOT = "src/repro/managers/mod.py"


def rules(findings):
    return [f.rule for f in findings]


def lint_source(source, path):
    """The lint tier's findings for one module's source."""
    return sorted(scan_source(source, path, "mod").lint_findings)


def lint_file(path):
    return lint_source(path.read_text(encoding="utf-8"), str(path))


class TestL001MutableDefaults:
    def test_list_default_is_error(self):
        findings = lint_source("def f(x=[]):\n    return x\n", COLD)
        assert rules(findings) == ["REPRO-L001"]

    def test_dict_constructor_default_is_error(self):
        findings = lint_source("def f(x=dict()):\n    return x\n", COLD)
        assert rules(findings) == ["REPRO-L001"]

    def test_argparse_style_default_kwarg_is_error(self):
        source = (
            "import argparse\n"
            "parser = argparse.ArgumentParser()\n"
            'parser.add_argument("--x", default=[])\n'
        )
        findings = lint_source(source, COLD)
        assert rules(findings) == ["REPRO-L001"]
        assert findings[0].line == 3

    def test_none_default_is_fine(self):
        assert lint_source("def f(x=None):\n    return x\n", COLD) == []


class TestL002BareExcept:
    def test_bare_except_is_error(self):
        source = "try:\n    pass\nexcept:\n    pass\n"
        assert rules(lint_source(source, COLD)) == ["REPRO-L002"]

    def test_typed_except_is_fine(self):
        source = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert lint_source(source, COLD) == []


class TestL003FloatEquality:
    def test_nonzero_float_equality_is_error(self):
        assert rules(lint_source("ok = x == 1.5\n", COLD)) == ["REPRO-L003"]

    def test_not_equal_also_flagged(self):
        assert rules(lint_source("ok = 0.1 != x\n", COLD)) == ["REPRO-L003"]

    def test_exact_zero_comparison_allowed(self):
        # np.clip saturation checks legitimately compare against 0.0.
        assert lint_source("ok = x == 0.0\n", COLD) == []

    def test_integer_equality_allowed(self):
        assert lint_source("ok = x == 3\n", COLD) == []


class TestL004NumpyDtype:
    def test_hot_path_zeros_without_dtype_warns(self):
        source = "import numpy as np\ndef f():\n    return np.zeros(3)\n"
        findings = lint_source(source, HOT)
        assert rules(findings) == ["REPRO-L004"]
        assert findings[0].severity == Severity.WARNING

    def test_hot_path_zeros_with_dtype_is_fine(self):
        source = "import numpy as np\ndef f():\n    return np.zeros(3, dtype=float)\n"
        assert lint_source(source, HOT) == []

    def test_cold_path_is_exempt(self):
        source = "import numpy as np\ndef f():\n    return np.zeros(3)\n"
        assert lint_source(source, COLD) == []


class TestL005DunderAll:
    def test_init_with_imports_and_no_all_is_error(self):
        source = "from repro.core import events\n"
        findings = lint_source(source, "src/repro/core/__init__.py")
        assert rules(findings) == ["REPRO-L005"]

    def test_init_with_all_is_fine(self):
        source = 'from repro.core import events\n__all__ = ["events"]\n'
        assert lint_source(source, "src/repro/core/__init__.py") == []

    def test_plain_module_needs_no_all(self):
        assert lint_source("from repro.core import events\n", COLD) == []


class TestL006UnitSuffixes:
    def test_unsuffixed_parameter_warns(self):
        findings = lint_source("def f(period):\n    return period\n", COLD)
        assert rules(findings) == ["REPRO-L006"]
        assert findings[0].severity == Severity.WARNING

    def test_unsuffixed_local_warns(self):
        source = "def f():\n    power = 3.0\n    return power\n"
        assert rules(lint_source(source, COLD)) == ["REPRO-L006"]

    def test_unit_suffix_is_fine(self):
        source = "def f(period_ms, budget_w):\n    return period_ms + budget_w\n"
        assert lint_source(source, COLD) == []

    def test_count_suffix_is_fine(self):
        assert lint_source("def f(period_epochs):\n    return period_epochs\n", COLD) == []

    def test_all_caps_constant_is_exempt(self):
        # ALL_CAPS names label DES events, not physical quantities.
        assert lint_source("SAFE_POWER = 2\n", COLD) == []

    def test_dataclass_field_names_are_exempt(self):
        source = (
            "class Phase:\n"
            "    power = 1.0\n"
        )
        assert lint_source(source, COLD) == []


class TestL007SwallowedExceptions:
    RESILIENT = "src/repro/resilience/guard.py"
    FAULTS = "src/repro/platform/faults.py"

    def test_except_pass_in_resilience_is_error(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        findings = lint_source(source, self.RESILIENT)
        assert "REPRO-L007" in rules(findings)
        l007 = [f for f in findings if f.rule == "REPRO-L007"]
        assert l007[0].severity == Severity.ERROR

    def test_except_continue_in_faults_module_is_error(self):
        source = (
            "def f(xs):\n"
            "    for x in xs:\n"
            "        try:\n"
            "            g(x)\n"
            "        except ValueError:\n"
            "            continue\n"
        )
        assert "REPRO-L007" in rules(lint_source(source, self.FAULTS))

    def test_handler_that_records_is_fine(self):
        source = (
            "def f(log):\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        log.append(1)\n"
        )
        assert "REPRO-L007" not in rules(lint_source(source, self.RESILIENT))

    def test_other_modules_are_exempt(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert "REPRO-L007" not in rules(lint_source(source, COLD))


class TestSyntaxError:
    def test_unparseable_source_is_l000(self):
        findings = lint_source("def f(:\n", COLD)
        assert rules(findings) == ["REPRO-L000"]


class TestL008AdHocParallelism:
    EXEC = "src/repro/exec/engine.py"

    def test_multiprocessing_import_outside_exec_is_error(self):
        assert rules(lint_source("import multiprocessing\n", COLD)) == [
            "REPRO-L008"
        ]

    def test_concurrent_futures_import_outside_exec_is_error(self):
        for source in (
            "import concurrent.futures\n",
            "from concurrent.futures import ProcessPoolExecutor\n",
            "from concurrent import futures\n",
            "from multiprocessing import get_context\n",
        ):
            assert rules(lint_source(source, HOT)) == ["REPRO-L008"], source

    def test_exec_layer_is_exempt(self):
        source = (
            "import multiprocessing\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
        )
        assert rules(lint_source(source, self.EXEC)) == []

    def test_unrelated_imports_are_fine(self):
        source = "import concurrency_helpers\nimport threading\n"
        assert "REPRO-L008" not in rules(lint_source(source, COLD))

    def test_message_points_at_the_engine(self):
        findings = lint_source("import multiprocessing\n", COLD)
        assert "ExperimentEngine" in findings[0].message


class TestL009NumpyTemporaries:
    KERNEL = "src/repro/platform/soc.py"

    def test_clip_in_kernel_function_is_error(self):
        source = (
            "import numpy as np\n"
            "def read(x):\n"
            "    return np.clip(x, 0.0, 2.0)\n"
        )
        findings = lint_source(source, self.KERNEL)
        assert rules(findings) == ["REPRO-L009"]
        assert findings[0].severity == Severity.ERROR

    def test_sum_in_kernel_function_is_error(self):
        source = (
            "import numpy as np\n"
            "def capacity(a):\n"
            "    return float(np.sum(a))\n"
        )
        assert rules(lint_source(source, self.KERNEL)) == ["REPRO-L009"]

    def test_allowlisted_function_is_exempt(self):
        source = (
            "import numpy as np\n"
            "def _telemetry_with_idle_insertion(cluster, total, rng):\n"
            "    values = np.zeros(4, dtype=float)\n"
            "    return float(np.sum(values))\n"
        )
        assert lint_source(source, self.KERNEL) == []

    def test_nested_function_inherits_allowlist(self):
        source = (
            "import numpy as np\n"
            "def _idle_adjusted_capacity(f, n):\n"
            "    def inner():\n"
            "        return float(np.sum(f[:n]))\n"
            "    return inner()\n"
        )
        assert lint_source(source, self.KERNEL) == []

    def test_init_is_construction_time(self):
        source = (
            "import numpy as np\n"
            "class Cluster:\n"
            "    def __init__(self, n):\n"
            "        self.f = np.zeros(n, dtype=float)\n"
        )
        assert lint_source(source, self.KERNEL) == []

    def test_module_level_allocation_is_exempt(self):
        source = "import numpy as np\nTABLE = np.zeros(4, dtype=float)\n"
        assert lint_source(source, self.KERNEL) == []

    def test_non_kernel_platform_file_is_exempt(self):
        source = (
            "import numpy as np\n"
            "def handle(x):\n"
            "    return np.clip(x, 0.0, 1.0)\n"
        )
        assert "REPRO-L009" not in rules(
            lint_source(source, "src/repro/platform/faults.py")
        )

    def test_kernel_sources_in_repo_stay_clean(self):
        from pathlib import Path

        from repro.analysis.lint import STEP_KERNEL_PATH_FRAGMENTS

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        checked = 0
        for fragment in STEP_KERNEL_PATH_FRAGMENTS:
            path = root / fragment.removeprefix("platform/")
            path = root / "platform" / path.name
            if not path.exists():
                continue
            checked += 1
            errors = [
                f for f in lint_file(path) if f.rule == "REPRO-L009"
            ]
            assert errors == [], f"{path}: {errors}"
        assert checked >= 6


class TestL010BoundedWaits:
    ENGINE = "src/repro/exec/engine.py"
    SUPERVISION = "src/repro/exec/supervision.py"
    CHAOS = "src/repro/exec/chaos.py"
    CAMPAIGN = "src/repro/resilience/campaign.py"

    def test_time_sleep_in_exec_is_error(self):
        source = "import time\ndef f():\n    time.sleep(1.0)\n"
        findings = lint_source(source, self.ENGINE)
        assert rules(findings) == ["REPRO-L010"]
        assert findings[0].severity == Severity.ERROR

    def test_from_time_import_sleep_is_error(self):
        source = "from time import sleep\ndef f():\n    sleep(0.1)\n"
        assert rules(lint_source(source, self.ENGINE)) == ["REPRO-L010"]

    def test_sleep_in_resilience_is_error(self):
        source = "import time\ndef f():\n    time.sleep(1.0)\n"
        assert rules(lint_source(source, self.CAMPAIGN)) == ["REPRO-L010"]

    def test_unbounded_result_is_error(self):
        source = "def f(future):\n    return future.result()\n"
        assert rules(lint_source(source, self.ENGINE)) == ["REPRO-L010"]

    def test_result_with_timeout_is_fine(self):
        source = "def f(future):\n    return future.result(timeout=0)\n"
        assert lint_source(source, self.ENGINE) == []

    def test_unbounded_wait_is_error(self):
        source = (
            "from concurrent.futures import wait\n"
            "def f(fs):\n"
            "    return wait(fs)\n"
        )
        assert rules(lint_source(source, self.ENGINE)) == ["REPRO-L010"]

    def test_aliased_wait_is_still_flagged(self):
        source = (
            "from concurrent.futures import wait as futures_wait\n"
            "def f(fs):\n"
            "    return futures_wait(fs)\n"
        )
        assert rules(lint_source(source, self.ENGINE)) == ["REPRO-L010"]

    def test_wait_with_timeout_is_fine(self):
        source = (
            "from concurrent.futures import wait\n"
            "def f(fs, poll_s):\n"
            "    return wait(fs, timeout=poll_s)\n"
        )
        assert lint_source(source, self.ENGINE) == []

    def test_supervision_policy_module_is_exempt(self):
        source = "import time\ndef backoff():\n    time.sleep(0.05)\n"
        assert lint_source(source, self.SUPERVISION) == []

    def test_chaos_injector_is_exempt(self):
        source = "import time\ndef hang():\n    time.sleep(15.0)\n"
        assert lint_source(source, self.CHAOS) == []

    def test_other_layers_are_exempt(self):
        source = "import time\ndef f():\n    time.sleep(1.0)\n"
        assert "REPRO-L010" not in rules(lint_source(source, COLD))

    def test_execution_layer_sources_in_repo_stay_clean(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        checked = 0
        for package in ("exec", "resilience"):
            for path in sorted((root / package).glob("*.py")):
                checked += 1
                errors = [
                    f for f in lint_file(path) if f.rule == "REPRO-L010"
                ]
                assert errors == [], f"{path}: {errors}"
        assert checked >= 10


class TestInlineSuppressions:
    def test_noqa_silences_named_rule_on_its_line(self):
        source = "def f(x=[]):  # repro: noqa[REPRO-L001]\n    return x\n"
        assert lint_source(source, COLD) == []

    def test_noqa_for_other_rule_does_not_silence(self):
        source = "def f(x=[]):  # repro: noqa[REPRO-L002]\n    return x\n"
        assert rules(lint_source(source, COLD)) == ["REPRO-L001"]

    def test_noqa_on_other_line_does_not_silence(self):
        source = (
            "# repro: noqa[REPRO-L001]\n"
            "def f(x=[]):\n"
            "    return x\n"
        )
        assert rules(lint_source(source, COLD)) == ["REPRO-L001"]

    def test_unknown_rule_id_is_n001_error(self):
        source = "x = 1  # repro: noqa[REPRO-NOPE]\n"
        findings = lint_source(source, COLD)
        assert rules(findings) == ["REPRO-N001"]
        assert findings[0].severity == Severity.ERROR

    def test_n001_cannot_suppress_itself(self):
        source = "x = 1  # repro: noqa[REPRO-NOPE, REPRO-N001]\n"
        assert "REPRO-N001" in rules(lint_source(source, COLD))

    def test_multiple_ids_both_honored(self):
        source = (
            "def f(x=[]):  # repro: noqa[REPRO-L001, REPRO-L006]\n"
            "    return x\n"
        )
        assert lint_source(source, COLD) == []

    def test_registry_has_all_lint_rules(self):
        from repro.analysis.findings import known_rule_ids

        known = known_rule_ids()
        for rule_id in [f"REPRO-L{n:03d}" for n in range(11)]:
            assert rule_id in known
