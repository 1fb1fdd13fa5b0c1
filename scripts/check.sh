#!/usr/bin/env bash
# Pre-merge gate: tier-1 test suite + static analysis.
#
# This is the single command CI runs (see .github/workflows/ci.yml) and
# the one to run locally before pushing.  It fails if any of
#   * any tier-1 test fails,
#   * the exec-engine smoke subset (`-m exec_smoke`: job digests,
#     cache integrity, golden traces) fails — kept as a dedicated step
#     so engine regressions are identified before the longer gates run
#     — with the compiled fast paths on, or with them disabled
#     (REPRO_DISABLE_FUSED=1): the scalar servo and plant tick (sensor
#     reads included) run the compiled kernels by default, so this run
#     pins their numpy/Python reference paths to the committed golden
#     traces,
#   * the fleet equivalence drill, the scalar sensor-read tests (the
#     compiled tick's readings against the Python read), the plant tick
#     tests or the RNG contract (the fleet's noise refill) with the
#     compiled fast paths disabled (REPRO_DISABLE_FUSED=1) fail — the
#     pure-numpy/Python fallbacks must stay bit-identical too, and
#     every SoC tick and fleet must report the fallback (the tier-1 run covers the same files with the kernels
#     on),
#   * the servo's kernel-coverage tests, the fleet differential
#     harness, the golden-trace tests or the golden servo-state digest
#     fail under the Sandybridge or the Prescott OpenBLAS kernel
#     (OPENBLAS_CORETYPE): every servo product runs in one defined
#     reduction order and the controller models and gains are loaded
#     from artifacts/design/, so the servo's bits must not depend on
#     the host's BLAS,
#   * `python -m repro.analysis all --strict` reports a non-baselined
#     error or warning in any tier (all four share one file walk, one
#     parse and one tree traversal per module, and one content-hash
#     cache): classic (lint plus architecture: lint findings,
#     architecture-layer violations), flow (whole-program rules: RNG
#     provenance, picklability, hot-path purity, unit flow,
#     frozen-dataclass mutation), models (the one artifact checker:
#     payload rules REPRO-A001..A009, model-check rules
#     REPRO-M001..M008 and, on policy bundles, gain-set rules
#     REPRO-G001..G005, on the committed formal artifacts), or shapes
#     (array contracts REPRO-S000..S005: symbolic shape/dtype abstract
#     interpretation, out=/view aliasing, ctypes ABI conformance, RNG
#     draw accounting).  The run also writes the merged
#     analysis-report.sarif plus the per-tier reports CI uploads,
#   * `python -m repro.resilience --smoke` records an invariant
#     violation (the fault-campaign smoke: SPECTR under every sensor
#     and actuator fault kind must stay on the verified envelope), or
#     its JSON report with the compiled fast paths on differs by a
#     byte from the one with them disabled (REPRO_DISABLE_FUSED=1):
#     faulted SoCs tick on the compiled plant tick, and the Python
#     tick is the reference it must reproduce; or the 2-worker pool
#     run's JSON differs by a byte from the serial run's (each spawned
#     worker derives the supervisor itself),
#   * `python -m repro.exec sweep tdp`, `sweep qos` or `ablations`
#     (uncached) fails: every sweep and ablation cell runs through the
#     experiment engine, so each front door runs end to end once,
#   * `python -m repro.exec chaos --smoke` diverges (the campaign
#     runtime's own fault drill: a seeded worker-kill + hang +
#     cache-corruption storm, interrupted and resumed once, must
#     reproduce the unfaulted serial results byte-for-byte with zero
#     lost or duplicated jobs),
#   * the benchmark suite's smoke (`benchmarks/suite/run.py --smoke`:
#     one reduced round of each of the five workloads with every output
#     check, including the fleet workload for all four managers with
#     rows 0 and N-1 compared against the scalar oracle) reports an
#     incorrect output or a failed operation, with the compiled fast
#     paths on or disabled (REPRO_DISABLE_FUSED=1: every workload's
#     output checks on the reference paths), or the suite's own tests
#     (`benchmarks/suite/tests`) fail.  Timings are printed, never
#     asserted: the speed floors (step kernel, fleet kernel, symbolic
#     vs explicit verification and synthesis), the explicit-oracle
#     equivalence checks and the fixpoint's pass-count gate
#     (TestTrimPassCount in tests/automata/test_symbolic_synthesis.py:
#     forward_reachable and backward_reachable each run
#     max(1, iterations - 1) times per supremal_fixpoint) are tier-1
#     tests (tests/perf/test_speed_floors.py, tests/automata/).
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
REPRO_DISABLE_FUSED=1 python -m pytest -x -q -m exec_smoke

echo
echo "== fleet equivalence drill without compiled fast paths =="
REPRO_DISABLE_FUSED=1 python -m pytest -x -q tests/platform/test_fleet_equivalence.py tests/platform/test_scalar_sensors.py tests/platform/test_plant_tick.py tests/platform/test_rng_contract.py

echo
echo "== servo under other OpenBLAS kernels =="
SERVO_FILES="tests/control/test_fused.py tests/control/test_scalar_fused.py tests/platform/test_fleet_equivalence.py tests/exec/test_golden_traces.py tests/exec/test_golden_fleet.py tests/exec/test_golden_servo.py"
OPENBLAS_CORETYPE=Sandybridge python -m pytest -x -q $SERVO_FILES
OPENBLAS_CORETYPE=Prescott python -m pytest -x -q $SERVO_FILES

echo
echo "== static analysis, all tiers (repro.analysis all) =="
python -m repro.analysis all --strict --report-dir .

echo
echo "== resilience fault-campaign smoke (kernels on and off, serial and pool, same JSON) =="
smoke_dir="$(mktemp -d)"
python -m repro.resilience --smoke --json "$smoke_dir/fused.json"
REPRO_DISABLE_FUSED=1 python -m repro.resilience --smoke --json "$smoke_dir/reference.json"
cmp "$smoke_dir/fused.json" "$smoke_dir/reference.json"
python -m repro.resilience --smoke --workers 2 --cache-dir "$smoke_dir/exec-cache" --json "$smoke_dir/pool.json"
cmp "$smoke_dir/fused.json" "$smoke_dir/pool.json"
rm -rf "$smoke_dir"

echo
echo "== experiment front doors (sweeps and ablations, uncached) =="
python -m repro.exec sweep tdp --no-cache
python -m repro.exec sweep qos --no-cache
python -m repro.exec ablations --no-cache

echo
echo "== chaos smoke (campaign-runtime fault drill) =="
python -m repro.exec chaos --smoke

echo
echo "== benchmark suite smoke (five workloads, every output checked) =="
python3 benchmarks/suite/run.py --smoke
REPRO_DISABLE_FUSED=1 python3 benchmarks/suite/run.py --smoke
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
