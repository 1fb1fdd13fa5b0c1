"""Tests for nonblocking and controllability verification."""

import dataclasses

import pytest

from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.verification import (
    check_controllability,
    check_nonblocking,
    verify_supervisor,
)

SIGMA = Alphabet.of(
    [controllable("go"), uncontrollable("fault"), controllable("fix")]
)


def plant():
    return automaton_from_table(
        "plant",
        SIGMA,
        transitions=[
            ("P0", "go", "P1"),
            ("P1", "fault", "P2"),
            ("P2", "fix", "P0"),
        ],
        initial="P0",
        marked=["P0"],
    )


class TestNonblocking:
    def test_cyclic_automaton_is_nonblocking(self):
        assert check_nonblocking(plant())

    def test_dead_end_blocks(self):
        a = plant()
        a.add_transition("P1", "go", "Dead")
        assert not check_nonblocking(a)


class TestControllability:
    def test_full_supervisor_is_controllable(self):
        ok, violations = check_controllability(plant(), plant().copy("sup"))
        assert ok
        assert violations == ()

    def test_disabling_uncontrollable_is_violation(self):
        supervisor = automaton_from_table(
            "sup",
            SIGMA,
            transitions=[("S0", "go", "S1")],  # omits fault at S1
            initial="S0",
            marked=["S0", "S1"],
        )
        ok, violations = check_controllability(plant(), supervisor)
        assert not ok
        assert violations[0].event.name == "fault"
        assert violations[0].plant_state.name == "P1"
        assert "fault" in str(violations[0])

    def test_disabling_controllable_is_fine(self):
        supervisor = automaton_from_table(
            "sup",
            SIGMA,
            transitions=[],  # disables 'go' at the initial state
            initial="S0",
            marked=["S0"],
        )
        ok, violations = check_controllability(plant(), supervisor)
        assert ok

    def test_violation_beyond_first_step(self):
        """Controllability is checked on the joint reachable space, not
        just the initial state."""
        supervisor = automaton_from_table(
            "sup",
            SIGMA,
            transitions=[
                ("S0", "go", "S1"),
                ("S1", "fault", "S2"),
                # omits nothing uncontrollable; 'fix' disabled is legal
            ],
            initial="S0",
            marked=["S0"],
        )
        ok, _ = check_controllability(plant(), supervisor)
        assert ok


class TestClosedLoopNonblocking:
    """Nonblocking must be judged on plant || supervisor, not the
    supervisor alone."""

    SIGMA = Alphabet.of([controllable("a"), controllable("b")])

    def test_supervisor_nonblocking_alone_but_product_blocks(self):
        # Plant needs a then b to reach its marked state; the supervisor
        # only ever offers a.  Every supervisor state reaches a marked
        # state, so the supervisor alone is nonblocking — but the product
        # is stuck at P1.T1 forever.
        plant_ = automaton_from_table(
            "chain",
            self.SIGMA,
            transitions=[("P0", "a", "P1"), ("P1", "b", "P2")],
            initial="P0",
            marked=["P2"],
        )
        supervisor = automaton_from_table(
            "sup",
            self.SIGMA,
            transitions=[("T0", "a", "T1")],
            initial="T0",
            marked=["T1"],
        )
        assert check_nonblocking(supervisor)

        report = verify_supervisor(plant_, supervisor)
        assert report.controllable  # only controllable events disabled
        assert not report.nonblocking
        assert not report.verified
        assert report.blocking_states
        assert any("P1" in s.name for s in report.blocking_states)

    def test_product_nonblocking_when_supervisor_completes_the_chain(self):
        plant_ = automaton_from_table(
            "chain",
            self.SIGMA,
            transitions=[("P0", "a", "P1"), ("P1", "b", "P2")],
            initial="P0",
            marked=["P2"],
        )
        supervisor = automaton_from_table(
            "sup",
            self.SIGMA,
            transitions=[("T0", "a", "T1"), ("T1", "b", "T2")],
            initial="T0",
            marked=["T2"],
        )
        report = verify_supervisor(plant_, supervisor)
        assert report.verified
        assert report.blocking_states == frozenset()


class TestVerifyReport:
    def test_report_pass(self):
        report = verify_supervisor(plant(), plant().copy("sup"))
        assert report.verified
        assert "PASS" in report.summary()

    def test_report_failure_lists_details(self):
        supervisor = automaton_from_table(
            "sup",
            SIGMA,
            transitions=[("S0", "go", "S1")],
            initial="S0",
            marked=["S0"],
        )
        # S1 is reachable but not coaccessible... actually S1 unmarked
        # with no outgoing transitions => blocking too.
        report = verify_supervisor(plant(), supervisor)
        assert not report.verified
        assert not report.controllable
        assert not report.nonblocking
        summary = report.summary()
        assert "FAIL" in summary
        assert "violation" in summary


class TestReportSerialization:
    def test_report_is_frozen_and_hashable(self):
        report = verify_supervisor(plant(), plant().copy("sup"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.nonblocking = False
        assert report in {report}
