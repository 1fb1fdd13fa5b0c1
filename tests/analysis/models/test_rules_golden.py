"""Golden fixtures: every REPRO-M rule on a hand-built bad model.

The fixtures under ``fixtures/`` (regenerate with ``make_fixtures.py``)
each trip one headline rule; the expected findings — including the
exact shortest witness traces — are asserted verbatim.  Exactness is
the point: a kernel change that perturbs trace selection or message
wording must show up here, not in production scans.
"""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.models.rules import (
    MAX_PER_RULE,
    check_bundle_freshness,
    check_model,
    check_monitor_consistency,
    check_reachability,
)
from repro.analysis.models.scan import scan_paths
from repro.automata.automaton import Automaton, automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.core.alphabet import (
    CRITICAL,
    DECREASE_CRITICAL_POWER,
    SAFE_POWER,
)

from tests.analysis.models.conftest import FIXTURES

SIGMA = Alphabet.of([controllable("go"), uncontrollable("fault")])


def _scan(unit: str, *, resynthesize: bool = True):
    result = scan_paths(
        [FIXTURES / unit], cache=None, resynthesize=resynthesize
    )
    return sorted(result.report.findings)


def _rows(findings):
    return [(f.rule, f.severity, f.message) for f in findings]


# ----------------------------------------------------------------------
# One golden unit per rule
# ----------------------------------------------------------------------
class TestGoldenFixtures:
    def test_m001_unreachable(self):
        assert _rows(_scan("m001_unreachable")) == [
            (
                "REPRO-M001",
                Severity.WARNING,
                "automaton 'DebrisPlant': 1 unreachable state(s): ['Orphan']",
            )
        ]

    def test_m002_blocking_with_trace(self):
        assert _rows(_scan("m002_blocking")) == [
            (
                "REPRO-M001",
                Severity.WARNING,
                "automaton 'CapPlant': 1 dead state(s) (no outgoing "
                "transitions, unmarked): ['Stuck']",
            ),
            (
                "REPRO-M002",
                Severity.ERROR,
                "automaton 'CapPlant': 1 blocking state(s) ['Stuck']; "
                "shortest counterexample trace to 'Stuck': [go -> fault]",
            ),
            (
                "REPRO-M005",
                Severity.WARNING,
                "automaton 'CapPlant': uncontrollable event 'fault' forces "
                "state 'Work' into degraded state 'Stuck'; witness trace: "
                "[go]",
            ),
        ]

    def test_m003_controllability_violation(self):
        findings = _scan("m003_uncontrollable", resynthesize=False)
        assert _rows(findings) == [
            (
                "REPRO-M003",
                Severity.ERROR,
                "uncontrollable event 'fault' enabled by plant at P1 but "
                "disabled by supervisor at S1; witness trace: [go]",
            ),
            (
                "REPRO-M004",
                Severity.WARNING,
                "automaton 'S': event(s) ['fault'] are in the alphabet but "
                "never enabled at any state (spec coverage gap)",
            ),
        ]
        # With re-synthesis on, the same unit additionally reports the
        # shipped supervisor as stale (synthesis removes 'go').
        rules = [f.rule for f in _scan("m003_uncontrollable")]
        assert rules.count("REPRO-M003") == 1
        assert rules.count("REPRO-M007") == 1

    def test_m004_attribute_disagreement(self):
        result = scan_paths([FIXTURES / "m004_alphabet"], cache=None)
        # One report per defect: re-synthesis could only fail on the
        # same conflict, so the scan skips M007.
        assert _rows(sorted(result.report.findings)) == [
            (
                "REPRO-M004",
                Severity.ERROR,
                "event 'go' is uncontrollable in 'plant' but controllable "
                "in 'supervisor'",
            )
        ]
        assert result.stats.resynthesized == 0
        # Called on such a pair, M007 degrades to its failure branch
        # rather than raising.
        plant = automaton_from_table(
            "P",
            Alphabet.of([uncontrollable("go")]),
            [("P0", "go", "P0")],
            initial="P0",
            marked=["P0"],
        )
        supervisor = automaton_from_table(
            "S",
            Alphabet.of([controllable("go")]),
            [("S0", "go", "S0")],
            initial="S0",
            marked=["S0"],
        )
        (finding,) = check_bundle_freshness(plant, supervisor, "x")
        assert finding.rule == "REPRO-M007"
        assert finding.message.startswith(
            "re-synthesis from the bundled models failed:"
        )

    def test_m005_uncontrollable_deadend(self):
        assert _rows(_scan("m005_deadend")) == [
            (
                "REPRO-M005",
                Severity.WARNING,
                "automaton 'GuardPlant': uncontrollable event 'fault' "
                "forces state 'Work' into degraded state 'Trap'; witness "
                "trace: [go]",
            )
        ]

    def test_m006_monitor_shadow(self):
        findings = _scan("m006_monitor")
        assert _rows(findings) == [
            (
                "REPRO-M004",
                Severity.WARNING,
                "automaton 'BadSupervisor': event(s) "
                "['decreaseCriticalPower'] are in the alphabet but never "
                "enabled at any state (spec coverage gap)",
            ),
            (
                "REPRO-M006",
                Severity.ERROR,
                "automaton 'BadSupervisor': 'increaseBigPower' is enabled "
                "at state 'Cap' during a capping episode — the runtime "
                "monitor (RES-I2) rejects every such execution; witness "
                "trace: [critical]",
            ),
            (
                "REPRO-M006",
                Severity.ERROR,
                "automaton 'BadSupervisor': escalated 'critical' at state "
                "'Cap' reaches 'Cap' where 'decreaseCriticalPower' cannot "
                "be executed via controllable events — the monitor's "
                "RES-I3 demand is unsatisfiable; witness trace: "
                "[critical -> critical]",
            ),
        ]

    def test_m007_stale_supervisor(self):
        findings = _scan("m007_stale")
        assert [f.rule for f in findings] == ["REPRO-M007", "REPRO-M005"]
        stale = findings[0]
        assert stale.severity is Severity.ERROR
        assert stale.message.startswith(
            "persisted supervisor is stale: re-synthesized supremal "
            "controllable supervisor diverges after trace [] "
            "(enabled only in 'StaleSup': ['go']); persisted digest "
        )


# ----------------------------------------------------------------------
# Branches the committed fixtures do not reach
# ----------------------------------------------------------------------
class TestRuleEdges:
    def test_m001_no_initial_state(self):
        automaton = Automaton("Empty", SIGMA)
        automaton.add_state("A")
        (finding,) = check_reachability(automaton, "x.json")
        assert finding.rule == "REPRO-M001"
        assert "has no initial state" in finding.message

    def test_specification_role_skips_m005(self):
        spec = automaton_from_table(
            "Spec",
            SIGMA,
            [
                ("Idle", "go", "Work"),
                ("Work", "go", "Idle"),
                ("Work", "fault", "Trap"),
            ],
            initial="Idle",
            marked=["Idle", "Work"],
            forbidden=["Trap"],
        )
        assert check_model(spec, "spec.json", role="specification") == []
        assert any(
            f.rule == "REPRO-M005"
            for f in check_model(spec, "spec.json", role="plant")
        )

    def test_m005_elision_past_cap(self):
        # MAX_PER_RULE + 2 healthy states all fall into the same trap.
        n = MAX_PER_RULE + 2
        transitions = [("H0", "go", "H1")]
        for i in range(1, n):
            transitions.append((f"H{i}", "go", f"H{(i + 1) % n}"))
        transitions += [(f"H{i}", "fault", "Trap") for i in range(n)]
        plant = automaton_from_table(
            "Wide",
            SIGMA,
            transitions,
            initial="H0",
            marked=[f"H{i}" for i in range(n)],
            forbidden=["Trap"],
        )
        findings = [
            f
            for f in check_reachability(plant, "wide.json")
            if f.rule == "REPRO-M005"
        ]
        assert len(findings) == MAX_PER_RULE + 1
        assert findings[-1].message == (
            "automaton 'Wide': 2 further uncontrollable dead-end(s) elided"
        )

    def test_m006_skips_foreign_alphabets(self):
        plain = automaton_from_table(
            "NoCapping",
            SIGMA,
            [("A", "go", "A")],
            initial="A",
            marked=["A"],
        )
        assert check_monitor_consistency(plain, "x.json") == []

    def test_m006_dead_rule_warning(self):
        sigma = Alphabet.of(
            [uncontrollable(CRITICAL), uncontrollable(SAFE_POWER)]
        )
        quiet = automaton_from_table(
            "Quiet",
            sigma,
            [("A", SAFE_POWER, "A")],
            initial="A",
            marked=["A"],
        )
        (finding,) = check_monitor_consistency(quiet, "x.json")
        assert finding.severity is Severity.WARNING
        assert "can never trigger" in finding.message

    def test_m006_clean_supervisor(self):
        sigma = Alphabet.of(
            [
                uncontrollable(CRITICAL),
                uncontrollable(SAFE_POWER),
                controllable(DECREASE_CRITICAL_POWER),
            ]
        )
        good = automaton_from_table(
            "GoodSupervisor",
            sigma,
            [
                ("Run", CRITICAL, "Cap"),
                ("Cap", CRITICAL, "Cap"),
                ("Cap", DECREASE_CRITICAL_POWER, "Cap"),
                ("Cap", SAFE_POWER, "Run"),
            ],
            initial="Run",
            marked=["Run", "Cap"],
        )
        assert check_monitor_consistency(good, "x.json") == []

    def test_m007_language_equal_but_not_canonical(self):
        # The persisted supervisor is language-equivalent to what
        # synthesis produces but has a different canonical shape (the
        # spec unrolls the loop once) — warning, not error.
        sigma = Alphabet.of([controllable("go")])
        plant = automaton_from_table(
            "P", sigma, [("P0", "go", "P0")], initial="P0", marked=["P0"]
        )
        specification = automaton_from_table(
            "Unrolled",
            sigma,
            [("A", "go", "B"), ("B", "go", "B")],
            initial="A",
            marked=["A", "B"],
        )
        persisted = automaton_from_table(
            "Loop", sigma, [("S0", "go", "S0")], initial="S0", marked=["S0"]
        )
        (finding,) = check_bundle_freshness(
            plant, persisted, "x", specification=specification
        )
        assert finding.rule == "REPRO-M007"
        assert finding.severity is Severity.WARNING
        assert "language-equivalent" in finding.message

    def test_m007_fresh_artifact_is_clean(self):
        from repro.automata.synthesis import synthesize_supervisor

        plant = automaton_from_table(
            "P",
            SIGMA,
            [("P0", "go", "P1"), ("P1", "fault", "P0")],
            initial="P0",
            marked=["P0"],
        )
        spec = automaton_from_table(
            "Sp",
            SIGMA,
            [("A", "go", "B"), ("B", "fault", "A")],
            initial="A",
            marked=["A"],
        )
        fresh = synthesize_supervisor(plant, spec).supervisor
        assert (
            check_bundle_freshness(plant, fresh, "x", specification=spec)
            == []
        )
