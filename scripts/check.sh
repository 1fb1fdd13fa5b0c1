#!/usr/bin/env bash
# Pre-merge gate: tier-1 test suite + static analysis.
#
# This is the single command CI runs (see .github/workflows/ci.yml) and
# the one to run locally before pushing.  It fails if any of
#   * any tier-1 test fails,
#   * the exec-engine smoke subset (`-m exec_smoke`: job digests,
#     cache integrity, golden traces) fails — kept as a dedicated step
#     so engine regressions are identified before the longer gates run,
#   * the fleet equivalence drill with the compiled fast paths disabled
#     (REPRO_DISABLE_FUSED=1) diverges from the scalar oracle — the
#     pure-numpy fallback must stay bit-identical too,
#   * `python -m repro.analysis all` reports a non-baselined error in
#     any tier (all four share one file walk, one parse and one tree
#     traversal per module, and one content-hash cache): classic (artifact defects, lint errors,
#     architecture-layer violations), flow (whole-program rules: RNG
#     provenance, picklability, hot-path purity, unit flow,
#     frozen-dataclass mutation), models (model-check rules
#     REPRO-M001..M007 on the committed formal artifacts), or shapes
#     (array contracts REPRO-S000..S005: symbolic shape/dtype abstract
#     interpretation, out=/view aliasing, ctypes ABI conformance, RNG
#     draw accounting).  The run also writes the merged
#     analysis-report.sarif plus the per-tier reports CI uploads,
#   * `python -m repro.resilience --smoke` records an invariant
#     violation (the fault-campaign smoke: SPECTR under every sensor
#     and actuator fault kind must stay on the verified envelope),
#   * `python -m repro.exec chaos --smoke` diverges (the campaign
#     runtime's own fault drill: a seeded worker-kill + hang +
#     cache-corruption storm, interrupted and resumed once, must
#     reproduce the unfaulted serial results byte-for-byte with zero
#     lost or duplicated jobs),
#   * the step-kernel benchmark (quick mode) fails to complete or to
#     emit valid JSON.  Quick mode asserts completion only — wall-clock
#     on a loaded CI box is noise; the 2x speedup gate runs in the full
#     benchmark (`python -m pytest benchmarks/bench_step_kernel.py`),
#   * the model-check benchmark (quick mode, MODEL_CHECK_QUICK=1) fails
#     its byte-identical explicit-vs-bitset report comparison or its
#     relaxed 3x speedup floor (the 10x gate runs in the full sweep:
#     `python -m pytest benchmarks/bench_model_check.py`),
#   * the benchmark suite's smoke (`benchmarks/suite/run.py --smoke`:
#     one reduced round of each of the five workloads with every output
#     check, including the fleet workload for all four managers with
#     rows 0 and N-1 compared against the scalar oracle) reports an
#     incorrect output or a failed operation, or the suite's own tests
#     (`benchmarks/suite/tests`) fail.  Timings are printed, never
#     asserted,
#   * the symbolic-synthesis benchmark (quick mode, SYNTH_QUICK=1)
#     fails its byte-identical explicit-vs-symbolic bundle comparison
#     or its relaxed 3x speedup floor (the 20x gate and the 10-cluster
#     scale points run in the full sweep:
#     `python -m pytest benchmarks/bench_symbolic_synthesis.py`).
#
# Optional third-party linters (ruff/mypy, `pip install -e .[lint]`) run
# only when installed, so the gate works on the bare numpy toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== exec-engine smoke (serial/parallel/cache equivalence) =="
python -m pytest -x -q -m exec_smoke

echo
echo "== fleet equivalence drill without compiled fast paths =="
REPRO_DISABLE_FUSED=1 python -m pytest -x -q tests/platform/test_fleet_equivalence.py

echo
echo "== static analysis, all tiers (repro.analysis all) =="
python -m repro.analysis all --report-dir .

echo
echo "== resilience fault-campaign smoke =="
python -m repro.resilience --smoke

echo
echo "== chaos smoke (campaign-runtime fault drill) =="
python -m repro.exec chaos --smoke

echo
echo "== step-kernel benchmark (quick mode) =="
STEP_KERNEL_QUICK=1 python -m pytest -x -q benchmarks/bench_step_kernel.py
python - <<'EOF'
import json
with open("benchmarks/results/step_kernel.json") as fh:
    payload = json.load(fh)
for key in ("baseline_steps_per_s", "optimized_steps_per_s", "speedup"):
    assert key in payload, f"step_kernel.json missing {key!r}"
print("step_kernel.json is valid")
EOF

echo
echo "== model-check benchmark (quick mode) =="
MODEL_CHECK_QUICK=1 python -m pytest -x -q benchmarks/bench_model_check.py
python - <<'EOF'
import json
with open("benchmarks/results/model_check.json") as fh:
    payload = json.load(fh)
assert payload["sizes"], "model_check.json has no size rows"
for row in payload["sizes"]:
    for key in ("plant_states", "explicit_s", "symbolic_s", "speedup"):
        assert key in row, f"model_check.json row missing {key!r}"
print("model_check.json is valid")
EOF

echo
echo "== symbolic-synthesis benchmark (quick mode) =="
SYNTH_QUICK=1 python -m pytest -x -q benchmarks/bench_symbolic_synthesis.py
python - <<'EOF'
import json
with open("benchmarks/results/symbolic_synthesis.json") as fh:
    payload = json.load(fh)
assert payload["sizes"], "symbolic_synthesis.json has no size rows"
for row in payload["sizes"] + [payload["fleet"]]:
    for key in ("plant_states", "supervisor_states", "explicit_s",
                "symbolic_s", "speedup", "iterations"):
        assert key in row, f"symbolic_synthesis.json row missing {key!r}"
assert "scale" in payload, "symbolic_synthesis.json missing scale section"
print("symbolic_synthesis.json is valid")
EOF

echo
echo "== benchmark suite smoke (five workloads, every output checked) =="
python3 benchmarks/suite/run.py --smoke
python -m pytest -q benchmarks/suite/tests

if command -v ruff >/dev/null 2>&1; then
    echo
    echo "== ruff =="
    ruff check src tests
fi
if command -v mypy >/dev/null 2>&1; then
    echo
    echo "== mypy =="
    mypy
fi

echo
echo "All checks passed."
