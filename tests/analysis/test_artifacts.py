"""Golden bad-artifact fixtures through the model tier.

Each committed fixture under ``fixtures/`` seeds exactly one defect and
must therefore produce exactly one error finding — the analyzer must
neither miss the defect nor cascade extra noise from it.  The scans
skip M007's re-synthesis for speed; the model tier skips it on its own
for a conflicting alphabet (``tests/analysis/models/test_rules_golden.py``
pins that).
"""

import json
from pathlib import Path

import numpy as np

from repro.analysis.findings import Severity
from repro.analysis.models.scan import (
    looks_like_automaton_payload,
    scan_paths,
    unit_cache,
)
from repro.automata.automaton import automaton_from_table
from repro.automata.events import Alphabet, controllable
from repro.control.gains import GainLibrary
from repro.control.lqg import LQGGains
from repro.control.statespace import OperatingPoint, StateSpaceModel
from repro.core.persistence import PolicyBundle, save_bundle

FIXTURES = Path(__file__).parent / "fixtures"


def errors(findings):
    return [f for f in findings if f.severity == Severity.ERROR]


def analyze(path):
    """Every finding the model tier reports on one artifact."""
    return sorted(scan_paths([path], resynthesize=False).report.findings)


def scalar_gains(name, k_state, k_integral):
    model = StateSpaceModel(
        A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], dt=0.05, name="toy"
    )
    return LQGGains(
        name=name,
        model=model,
        K_state=np.array([[float(k_state)]]),
        K_integral=np.array([[float(k_integral)]]),
        L=np.array([[0.5]]),
        Q_output=np.eye(1),
        R_effort=np.eye(1),
        integral_mask=np.ones(1),
    )


def bundle_with(gains):
    supervisor = automaton_from_table(
        "sup",
        Alphabet.of([controllable("tick")]),
        transitions=[("S0", "tick", "S0")],
        initial="S0",
        marked=["S0"],
    )
    library = GainLibrary(name="big")
    library.register(gains)
    return PolicyBundle(
        supervisor=supervisor,
        plant=None,
        gain_libraries={"big": library},
        operating_points={"big": OperatingPoint(u=[1.0], y=[1.0])},
    )


class TestGoldenFixtures:
    def test_nondeterministic_automaton_exactly_one_error(self):
        path = FIXTURES / "nondeterministic_automaton.json"
        findings = analyze(path)
        errs = errors(findings)
        assert len(errs) == 1
        assert errs[0].rule == "REPRO-A002"
        assert errs[0].path == str(path)
        assert errs[0].line == 1  # file:line in the formatted output

    def test_alphabet_mismatch_bundle_exactly_one_error(self):
        findings = analyze(FIXTURES / "alphabet_mismatch_bundle")
        errs = errors(findings)
        assert len(errs) == 1
        assert errs[0].rule == "REPRO-M004"
        assert "toggle" in errs[0].message

    def test_unstable_gain_set_exactly_one_error(self, tmp_path):
        # k_state=-0.8 puts a closed-loop eigenvalue at 1.3.
        bundle_dir = save_bundle(
            bundle_with(scalar_gains("unstable", -0.8, 0.0)),
            tmp_path / "bundle",
        )
        findings = analyze(bundle_dir)
        errs = errors(findings)
        assert len(errs) == 1
        assert errs[0].rule == "REPRO-G003"
        assert "gains.npz#big/unstable" in errs[0].path

    def test_clean_automaton_has_no_findings(self):
        assert analyze(FIXTURES / "clean_automaton.json") == []

    def test_clean_bundle_has_no_findings(self, tmp_path):
        bundle_dir = save_bundle(
            bundle_with(scalar_gains("stable", 0.5, -0.25)),
            tmp_path / "bundle",
        )
        assert analyze(bundle_dir) == []


class TestArtifactEdgeCases:
    def test_non_automaton_json_named_explicitly_is_a001(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"foo": 1}))
        findings = analyze(path)
        assert [f.rule for f in findings] == ["REPRO-A001"]

    def test_unreadable_json_is_a001(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert [f.rule for f in analyze(path)] == ["REPRO-A001"]

    def test_bundle_with_bad_format_is_a001(self, tmp_path):
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "bundle.json").write_text(json.dumps({"format": "v99"}))
        findings = analyze(bundle)
        assert [f.rule for f in findings] == ["REPRO-A001"]

    def test_missing_gains_file_is_g002(self, tmp_path):
        bundle_dir = save_bundle(
            bundle_with(scalar_gains("stable", 0.5, -0.25)),
            tmp_path / "bundle",
        )
        (bundle_dir / "gains.npz").unlink()
        findings = analyze(bundle_dir)
        assert [f.rule for f in findings] == ["REPRO-G002"]
        assert "missing" in findings[0].message

    def test_payload_heuristic(self):
        assert looks_like_automaton_payload(
            {"states": [], "transitions": [], "events": []}
        )
        assert not looks_like_automaton_payload({"states": []})
        assert not looks_like_automaton_payload([1, 2])

    def test_walk_finds_automaton_shaped_json_only(self, tmp_path):
        # A walked JSON file is an artifact only with the automaton key
        # shape; other data files (results, configs) pass through.
        (tmp_path / "results.json").write_text(json.dumps({"foo": 1}))
        nondeterministic = FIXTURES / "nondeterministic_automaton.json"
        (tmp_path / "model.json").write_text(nondeterministic.read_text())
        findings = analyze(tmp_path)
        assert [(f.rule, f.path) for f in findings] == [
            ("REPRO-A002", str(tmp_path / "model.json"))
        ]


class TestBundleRules:
    """Each bundle defect fails the model tier with its rule."""

    def saved(self, tmp_path, gains=None):
        return save_bundle(
            bundle_with(gains or scalar_gains("stable", 0.5, -0.25)),
            tmp_path / "bundle",
        )

    def test_bad_supervisor_payload_is_an_a_rule(self, tmp_path):
        bundle_dir = self.saved(tmp_path)
        manifest_path = bundle_dir / "bundle.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["supervisor"]["marked"] = ["S0", "Ghost"]
        manifest_path.write_text(json.dumps(manifest))
        (finding,) = analyze(bundle_dir)
        assert finding.rule == "REPRO-A003"
        assert finding.path == f"{manifest_path}#supervisor"

    def test_non_finite_gain_is_g001(self, tmp_path):
        nan = scalar_gains("nan", float("nan"), 0.0)
        bundle_dir = self.saved(tmp_path, nan)
        assert [f.rule for f in errors(analyze(bundle_dir))] == ["REPRO-G001"]

    def test_unreadable_gains_file_is_g001(self, tmp_path):
        bundle_dir = self.saved(tmp_path)
        (bundle_dir / "gains.npz").write_bytes(b"not an archive")
        (finding,) = analyze(bundle_dir)
        assert finding.rule == "REPRO-G001"
        assert "unreadable gains.npz" in finding.message

    def test_undeclared_gain_arrays_are_g002(self, tmp_path):
        bundle_dir = self.saved(tmp_path)
        with np.load(bundle_dir / "gains.npz") as data:
            arrays = {k: data[k] for k in data.files if "K_state" not in k}
        np.savez(bundle_dir / "gains.npz", **arrays)
        (finding,) = analyze(bundle_dir)
        assert finding.rule == "REPRO-G002"
        assert "cannot be reconstructed" in finding.message

    def test_gains_edit_invalidates_the_cached_unit(self, tmp_path):
        bundle_dir = self.saved(tmp_path)
        cache = unit_cache(tmp_path / "cache")
        assert scan_paths([bundle_dir], cache=cache).report.findings == []
        save_bundle(
            bundle_with(scalar_gains("stable", -0.8, 0.0)), bundle_dir
        )
        result = scan_paths([bundle_dir], cache=cache)
        assert cache.hits == 0
        assert [f.rule for f in result.report.errors] == ["REPRO-G003"]
