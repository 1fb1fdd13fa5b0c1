"""Unit tests for the model tier's checks on serialized automata.

Payload defects are the loader's A-rules (they run before decoding);
behavioural defects are the M-rules on the decoded automaton.
"""

import pytest

from repro.analysis.findings import Severity
from repro.analysis.models.rules import (
    check_alphabet_consistency,
    check_closed_loop,
    check_model,
)
from repro.analysis.models.scan import load_payload
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable


def payload(**overrides):
    """A minimal clean automaton payload (toggle machine)."""
    base = {
        "name": "toy",
        "events": [{"name": "a", "controllable": True, "observable": True}],
        "states": ["S0", "S1"],
        "initial": "S0",
        "marked": ["S0"],
        "forbidden": [],
        "transitions": [["S0", "a", "S1"], ["S1", "a", "S0"]],
    }
    base.update(overrides)
    return base


def check_automaton_payload(raw):
    """The loader's payload checks, then the single-model M-rules."""
    automaton, findings = load_payload(raw, "<payload>")
    if automaton is not None:
        findings = check_model(automaton, "<payload>")
    return findings


def decoded(raw):
    automaton, findings = load_payload(raw, "<payload>")
    assert findings == []
    return automaton


def rules(findings):
    return [f.rule for f in findings]


def errors(findings):
    return [f for f in findings if f.severity == Severity.ERROR]


class TestPayloadChecks:
    def test_clean_payload_has_no_findings(self):
        assert check_automaton_payload(payload()) == []

    def test_missing_key_is_a001(self):
        bad = payload()
        del bad["transitions"]
        assert rules(check_automaton_payload(bad)) == ["REPRO-A001"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"events": ["a"]},
            {"marked": None},
            {"initial": ["S0"]},
            {"transitions": [["S0", "a"]]},
            {"transitions": [[["S0"], "a", "S1"]]},
        ],
    )
    def test_malformed_payload_is_one_a001(self, overrides):
        findings = check_automaton_payload(payload(**overrides))
        assert rules(findings) == ["REPRO-A001"]
        assert "malformed automaton payload" in findings[0].message

    def test_nondeterminism_is_exactly_one_a002(self):
        bad = payload(
            states=["S0", "S1", "S2"],
            marked=["S1", "S2"],
            transitions=[["S0", "a", "S1"], ["S0", "a", "S2"]],
        )
        findings = check_automaton_payload(bad)
        assert rules(errors(findings)) == ["REPRO-A002"]

    def test_unknown_state_is_a003(self):
        bad = payload(transitions=[["S0", "a", "GHOST"]])
        assert "REPRO-A003" in rules(check_automaton_payload(bad))

    def test_unknown_event_is_a004(self):
        bad = payload(transitions=[["S0", "zap", "S1"]])
        assert "REPRO-A004" in rules(check_automaton_payload(bad))

    def test_missing_initial_is_a005(self):
        assert "REPRO-A005" in rules(check_automaton_payload(payload(initial=None)))

    def test_no_marked_state_is_a006(self):
        assert "REPRO-A006" in rules(check_automaton_payload(payload(marked=[])))

    def test_undeclared_state_names_are_a003(self):
        bad = payload(initial="I", marked=["S0", "M"], forbidden=["F"])
        findings = check_automaton_payload(bad)
        assert rules(findings) == ["REPRO-A003"] * 3
        assert sorted(f.message for f in findings) == [
            "forbidden state 'F' not in state set",
            "initial state 'I' not in state set",
            "marked state 'M' not in state set",
        ]

    def test_undecodable_payload_is_a009(self):
        # Every A001-A006 check passes; the decoder needs each event's
        # attributes spelled out.
        automaton, findings = load_payload(
            payload(events=[{"name": "a"}]), "<payload>"
        )
        assert automaton is None
        assert rules(findings) == ["REPRO-A009"]
        assert "fails to decode" in findings[0].message

    def test_unreachable_state_is_m001_warning_only(self):
        shape = payload(
            states=["S0", "S1", "ORPHAN"],
            transitions=[["S0", "a", "S1"], ["S1", "a", "S0"]],
        )
        findings = check_automaton_payload(shape)
        assert rules(findings) == ["REPRO-M001"]
        assert errors(findings) == []

    def test_blocking_state_is_m002(self):
        bad = payload(
            states=["S0", "S1", "DEAD"],
            transitions=[
                ["S0", "a", "S1"],
                ["S1", "a", "DEAD"],
            ],
        )
        findings = check_automaton_payload(bad)
        # DEAD is also reported as a dead state (warning).
        assert rules(findings) == ["REPRO-M001", "REPRO-M002"]
        assert rules(errors(findings)) == ["REPRO-M002"]


class TestModularAlphabets:
    def test_consistent_alphabets_pass(self):
        findings = check_alphabet_consistency(
            {"m1": decoded(payload()), "m2": decoded(payload(name="other"))},
            "<bundle>",
        )
        assert findings == []

    def test_controllability_conflict_is_exactly_one_m004(self):
        conflicting = payload(
            name="other",
            events=[{"name": "a", "controllable": False, "observable": True}],
        )
        findings = check_alphabet_consistency(
            {"m1": decoded(payload()), "m2": decoded(conflicting)}, "<bundle>"
        )
        assert rules(findings) == ["REPRO-M004"]
        assert "controllable" in findings[0].message


class TestClosedLoopChecks:
    SIGMA = Alphabet.of([uncontrollable("fault"), controllable("fix")])

    def plant(self):
        return automaton_from_table(
            "plant",
            self.SIGMA,
            transitions=[("P0", "fault", "P1"), ("P1", "fix", "P0")],
            initial="P0",
            marked=["P0"],
        )

    def test_exact_copy_passes(self):
        findings = check_closed_loop(
            self.plant(), self.plant().copy("sup"), "<bundle>"
        )
        assert findings == []

    def test_disabled_uncontrollable_is_m003(self):
        supervisor = automaton_from_table(
            "sup",
            self.SIGMA,
            transitions=[],  # disables 'fault' at the initial state
            initial="T0",
            marked=["T0"],
        )
        findings = check_closed_loop(self.plant(), supervisor, "<bundle>")
        assert "REPRO-M003" in rules(findings)

    def test_blocking_product_is_m008(self):
        # Supervisor follows 'fault' but never re-enables 'fix': the
        # supervisor alone is nonblocking (T1 is marked) yet the product
        # is stuck at P1.T1 with no path back to a marked pair.
        supervisor = automaton_from_table(
            "sup",
            self.SIGMA,
            transitions=[("T0", "fault", "T1")],
            initial="T0",
            marked=["T0", "T1"],
        )
        findings = check_closed_loop(self.plant(), supervisor, "<bundle>")
        assert rules(findings) == ["REPRO-M008"]
        assert "blocks" in findings[0].message
