"""Verdicts and the gain-claim rule of ``compare.py``."""

from __future__ import annotations

import json

import pytest

import compare


@pytest.mark.parametrize(
    ("parent", "change", "better", "expected"),
    [
        ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", "regression"),
        ([1.0, 1.01, 0.99, 1.0], [1.03, 1.02, 1.04, 1.03], "lower", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", "improved"),
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "higher", "regression"),
        # Spread wider than the bound: no verdict either way...
        ([1.0, 1.3, 0.8, 1.1], [1.05, 0.8, 1.3, 1.0], "lower", "unresolved"),
        # ...unless every change value beats every parent value.
        ([1.0, 1.3, 0.8, 1.1], [0.5, 0.7, 0.55, 0.6], "lower", "improved"),
    ],
)
def test_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1) == expected


def test_any_new_failure_is_a_regression_at_bound_zero():
    assert compare.verdict([0.0, 0.0], [0.0, 0.01], "lower", 0.0) == "regression"
    assert compare.verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.0) == "unchanged"


def test_claim_needs_ten_pairs():
    met, reason = compare.claim([1.0] * 9, [0.5] * 9, "lower")
    assert not met and "needs 10" in reason


def test_claim_met_with_nine_of_ten_wins_and_a_gap_beyond_the_iqr():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 0.5]
    change = [0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.81, 0.79, 0.9]
    met, reason = compare.claim(parent, change, "lower")
    assert met, reason


def test_claim_not_met_with_eight_wins():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.2, 1.2]
    assert not compare.claim(parent, change, "lower")[0]


def test_ties_count_for_neither_side():
    parent = [1.0] * 10
    change = [0.8] * 9 + [1.0]
    assert compare.claim(parent, change, "lower")[0]
    change = [0.8] * 8 + [1.0, 1.0]
    assert not compare.claim(parent, change, "lower")[0]


def test_claim_not_met_when_the_gap_is_inside_the_parent_spread():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [value - 0.01 for value in parent]
    met, reason = compare.claim(parent, change, "lower")
    assert not met and "10/10" in reason


def _record(round_s: float, failed: float = 0.0) -> dict:
    summary = {
        "value": round_s,
        "unit": "s",
        "better": "lower",
        "bound": 0.1,
        "samples": [round_s * 0.99, round_s, round_s * 1.01],
    }
    return {
        "schema": "spectr-suite-run/1",
        "workloads": {
            "synthesis": {"metrics": {"round_s": summary}, "detail": {}, "fail_frac": failed}
        },
    }


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def test_main_exits_nonzero_on_a_regression(tmp_path, capsys):
    parent = _write(tmp_path / "parent.jsonl", [_record(1.0 + i * 0.001) for i in range(3)])
    same = _write(tmp_path / "same.jsonl", [_record(1.0 + i * 0.001) for i in range(3)])
    slower = _write(tmp_path / "slower.jsonl", [_record(1.3 + i * 0.001) for i in range(3)])
    assert compare.main([parent, same]) == 0
    assert compare.main([parent, slower]) == 1
    assert "regression" in capsys.readouterr().out


def test_baseline_sets_are_selected_by_name(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps({"sets": {"set-1": [_record(1.0)], "set-2": [_record(1.01)]}}),
        encoding="utf-8",
    )
    assert compare.main([f"{path}#set-1", f"{path}#set-2"]) == 0
    with pytest.raises(SystemExit):
        compare.load_runs(f"{path}#set-3")
