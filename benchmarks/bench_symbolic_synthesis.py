"""Explicit vs. symbolic supremal synthesis on scaled plant families.

The Ramadge-Wonham fixpoint (``automata/synthesis.py``) walks Python
sets state-by-state; the symbolic engine
(``automata/symbolic_synthesis.py``) runs the same
trim/uncontrollable-pruning rounds as whole-array operations on the
bitset kernel.  This bench runs both engines over the scalable platform
family and asserts:

* the result bundles are **byte-identical** (same ``automaton_to_dict``
  payload, same ``removed_*`` attribution, same round count) at every
  size;
* the symbolic engine is at least 20x faster at the largest size
  (7 clusters, ~61k product states);
* a 10-cluster scale point — plants of up to 1.65M reachable states,
  synthesized from ``encode_composition`` without ever materializing
  the plant as an ``Automaton`` — completes symbolically while the
  explicit engine cannot finish inside the benchmark budget (probed in
  a subprocess with a hard timeout).

Timings, scale points and the explicit-DNF probe land in
``benchmarks/results/symbolic_synthesis.json``.

Set ``SYNTH_QUICK=1`` to cap the sweep at the mid size and skip the
scale points (used by ``scripts/check.sh``); the 20x assertion then
relaxes to 3x — small models cannot amortize encoding.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import RESULTS_DIR

FULL_SIZES = [(2, 3), (4, 3), (7, 3)]
QUICK_SIZES = [(2, 3), (4, 3)]

# Speedup floors: the explicit engine has low constants on tiny models,
# so only the largest size carries the headline requirement.
FULL_MIN_SPEEDUP = 20.0
QUICK_MIN_SPEEDUP = 3.0

# Wall-clock budget for the explicit engine at the 10-cluster scale
# point.  The symbolic engine finishes the same problem in seconds;
# explicit composition alone (millions of dict entries) blows through
# this budget before synthesis even starts.
EXPLICIT_BUDGET_S = 60.0

SCALE_POINTS = [
    {"model": "scalable", "n_clusters": 10, "levels": 3},
    {"model": "fleet", "n_clusters": 10, "levels": 2},
]

_EXPLICIT_PROBE = """
import sys
from repro.automata import explicit_synthesize_supervisor
from repro.core.scalable import (
    fleet_alphabet,
    fleet_counter_plant,
    fleet_specification,
    scalable_alphabet,
    scalable_counter_plant,
    scalable_specification,
)

model, n_clusters, levels = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if model == "fleet":
    sigma = fleet_alphabet(n_clusters)
    plant = fleet_counter_plant(n_clusters, levels, sigma)
    spec = fleet_specification(n_clusters, sigma)
else:
    sigma = scalable_alphabet(n_clusters)
    plant = scalable_counter_plant(n_clusters, levels, sigma)
    spec = scalable_specification(n_clusters, sigma)
result = explicit_synthesize_supervisor(plant, spec)
print(len(result.supervisor))
"""


def _assert_identical(symbolic, explicit):
    from repro.automata import automaton_to_dict

    assert automaton_to_dict(symbolic.supervisor) == automaton_to_dict(
        explicit.supervisor
    )
    assert symbolic.removed_uncontrollable == explicit.removed_uncontrollable
    assert symbolic.removed_blocking == explicit.removed_blocking
    assert symbolic.iterations == explicit.iterations
    assert symbolic.state_map == explicit.state_map


def _synthesize_both(plant, spec):
    from repro.automata import (
        explicit_synthesize_supervisor,
        synthesize_supervisor,
    )

    # Warm the encoding memo and numpy dispatch before timing.
    synthesize_supervisor(plant, spec, engine="symbolic")
    start = time.perf_counter()
    symbolic = synthesize_supervisor(plant, spec, engine="symbolic")
    symbolic_s = time.perf_counter() - start

    start = time.perf_counter()
    explicit = explicit_synthesize_supervisor(plant, spec)
    explicit_s = time.perf_counter() - start
    return symbolic, symbolic_s, explicit, explicit_s


def _size_row(n_clusters, levels, plant, symbolic, symbolic_s, explicit_s):
    return {
        "n_clusters": n_clusters,
        "budget_levels": levels,
        "plant_states": len(plant.states),
        "plant_transitions": plant.n_transitions,
        "supervisor_states": len(symbolic.supervisor),
        "removed_uncontrollable": len(symbolic.removed_uncontrollable),
        "removed_blocking": len(symbolic.removed_blocking),
        "iterations": symbolic.iterations,
        "explicit_s": round(explicit_s, 4),
        "symbolic_s": round(symbolic_s, 4),
        "speedup": round(explicit_s / symbolic_s, 2),
    }


def _scale_components(model, n_clusters, levels):
    from repro.core.scalable import (
        fleet_alphabet,
        fleet_plant_components,
        fleet_specification,
        scalable_alphabet,
        scalable_plant_components,
        scalable_specification,
    )

    if model == "fleet":
        sigma = fleet_alphabet(n_clusters)
        return (
            fleet_plant_components(n_clusters, levels, sigma),
            fleet_specification(n_clusters, sigma),
        )
    sigma = scalable_alphabet(n_clusters)
    return (
        scalable_plant_components(n_clusters, levels, sigma),
        scalable_specification(n_clusters, sigma),
    )


def _probe_explicit(model, n_clusters, levels):
    """Run the explicit engine in a subprocess under a hard budget."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                _EXPLICIT_PROBE,
                model,
                str(n_clusters),
                str(levels),
            ],
            capture_output=True,
            timeout=EXPLICIT_BUDGET_S,
            env=env,
            cwd=repo_root,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "budget_s": EXPLICIT_BUDGET_S}
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        # MemoryError or similar — still a DNF for the record.
        return {
            "status": "error",
            "budget_s": EXPLICIT_BUDGET_S,
            "elapsed_s": round(elapsed, 2),
        }
    return {
        "status": "completed",
        "budget_s": EXPLICIT_BUDGET_S,
        "elapsed_s": round(elapsed, 2),
    }


def _run_scale_point(point):
    from repro.automata import (
        encode_automaton,
        encode_composition,
        supremal_fixpoint,
    )

    components, spec = _scale_components(
        point["model"], point["n_clusters"], point["levels"]
    )
    start = time.perf_counter()
    plant_enc = encode_composition(components)
    encode_s = time.perf_counter() - start

    start = time.perf_counter()
    fixpoint = supremal_fixpoint(plant_enc, encode_automaton(spec))
    synthesize_s = time.perf_counter() - start

    assert not fixpoint.is_empty, (
        f"{point['model']}-{point['n_clusters']} scale point synthesized "
        "an empty supervisor"
    )
    return {
        **point,
        "plant_states": plant_enc.n_states,
        "reachable_pairs": fixpoint.pair.product.n_states,
        "supervisor_states": fixpoint.n_supervisor_states,
        "removed_uncontrollable": int(fixpoint.removed_uncontrollable.sum()),
        "removed_blocking": int(fixpoint.removed_blocking.sum()),
        "iterations": fixpoint.iterations,
        "encode_s": round(encode_s, 4),
        "symbolic_s": round(synthesize_s, 4),
        "explicit": _probe_explicit(
            point["model"], point["n_clusters"], point["levels"]
        ),
    }


def test_symbolic_synthesis_speedup(save_result):
    from repro.core.scalable import (
        fleet_alphabet,
        fleet_counter_plant,
        fleet_specification,
        scalable_alphabet,
        scalable_counter_plant,
        scalable_specification,
    )

    quick = bool(os.environ.get("SYNTH_QUICK"))
    sizes = QUICK_SIZES if quick else FULL_SIZES
    min_speedup = QUICK_MIN_SPEEDUP if quick else FULL_MIN_SPEEDUP

    rows = []
    for n_clusters, levels in sizes:
        sigma = scalable_alphabet(n_clusters)
        plant = scalable_counter_plant(n_clusters, levels, sigma)
        spec = scalable_specification(n_clusters, sigma)
        symbolic, symbolic_s, explicit, explicit_s = _synthesize_both(
            plant, spec
        )
        _assert_identical(symbolic, explicit)
        rows.append(
            _size_row(n_clusters, levels, plant, symbolic, symbolic_s, explicit_s)
        )

    largest = rows[-1]
    assert largest["speedup"] >= min_speedup, (
        f"symbolic synthesis only {largest['speedup']}x faster than "
        f"explicit at {largest['plant_states']} plant states (need "
        f">= {min_speedup}x)"
    )

    # Fleet family sanity at small scale: engines agree on the
    # four-layer fleet model too, quick and full alike.
    fleet_sigma = fleet_alphabet(2)
    fleet_plant = fleet_counter_plant(2, 2, fleet_sigma)
    fleet_spec = fleet_specification(2, fleet_sigma)
    fsym, fsym_s, fexp, fexp_s = _synthesize_both(fleet_plant, fleet_spec)
    _assert_identical(fsym, fexp)
    fleet_row = _size_row(2, 2, fleet_plant, fsym, fsym_s, fexp_s)
    fleet_row["model"] = "fleet"

    scale = [] if quick else [_run_scale_point(p) for p in SCALE_POINTS]
    for point in scale:
        assert point["explicit"]["status"] != "completed", (
            f"explicit engine unexpectedly finished the "
            f"{point['model']}-{point['n_clusters']} scale point inside "
            f"{EXPLICIT_BUDGET_S}s — raise the scale point"
        )

    payload = {"quick": quick, "sizes": rows, "fleet": fleet_row, "scale": scale}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "symbolic_synthesis.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        "explicit vs symbolic supremal synthesis (byte-identical bundles)",
        f"{'plant states':>13} {'supervisor':>11} {'explicit':>10} "
        f"{'symbolic':>10} {'speedup':>8}",
    ]
    lines += [
        f"{row['plant_states']:>13} {row['supervisor_states']:>11} "
        f"{row['explicit_s']:>9.3f}s {row['symbolic_s']:>9.3f}s "
        f"{row['speedup']:>7.1f}x"
        for row in rows + [fleet_row]
    ]
    if scale:
        lines.append("")
        lines.append(
            "scale points (encode_composition + supremal_fixpoint; "
            f"explicit probed under {EXPLICIT_BUDGET_S:.0f}s budget)"
        )
        lines += [
            f"  {p['model']}-{p['n_clusters']}x{p['levels']}: "
            f"{p['plant_states']:,} plant states, "
            f"{p['reachable_pairs']:,} reachable pairs -> "
            f"{p['supervisor_states']:,} supervisor states in "
            f"{p['encode_s'] + p['symbolic_s']:.1f}s "
            f"(explicit: {p['explicit']['status']})"
            for p in scale
        ]
    save_result("symbolic_synthesis", "\n".join(lines))
