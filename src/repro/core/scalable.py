"""Scalable supervisor synthesis for N-cluster platforms.

The heart of the scalability argument (Sections 2.3 and 3.1): while a
monolithic MIMO's cost explodes with the core count (Figure 6), the
supervisory layer's *state space does not grow with the number of
clusters* — per-cluster budget-regulation actions appear as additional
self-loop events on the same QoS-tracking and budget-lock automata, so
the synthesized supervisor keeps a constant number of states and gains
only a linear number of transitions.

``build_scalable_supervisor(n)`` generalizes the two-cluster case study
to ``n`` clusters and returns the same :class:`VerifiedSupervisor`
bundle, formally checked for nonblocking and controllability.

The *fleet* layer stacks one more coordination level on top: a
fleet-wide power-capping process (per-fleet ``fleetCritical`` /
``decreaseFleetPower`` events layered over the per-cluster alphabet)
with its own three-band rule and a fleet-wide budget lock that freezes
every cluster's budget raises during a fleet capping episode.  The
fleet plant multiplies the counter plant's state space by another
factor of seven, which pushes the synthesis product into the millions
of pairs — the scale regime only the symbolic engine of
:mod:`repro.automata.symbolic_synthesis` can synthesize.  The benchmark
suite's ``synthesis`` workload (``benchmarks/suite/``) times the
scalable 7x3 and fleet 10x2 scale points (encoded plant, then fixpoint).
"""

from __future__ import annotations

from repro.automata.automaton import Automaton, automaton_from_table
from repro.automata.events import Alphabet, controllable, uncontrollable
from repro.automata.operations import compose_all
from repro.core.alphabet import (
    CONTROL_POWER,
    CRITICAL,
    DECREASE_CRITICAL_POWER,
    QOS_MET,
    QOS_NOT_MET,
    SAFE_POWER,
    SWITCH_GAINS,
    SWITCH_QOS,
)
from repro.core.plant_model import gain_mode_plant, power_capping_plant
from repro.core.specification import three_band_spec
from repro.core.synthesis_flow import VerifiedSupervisor, synthesize_and_verify

# Fleet-level coordination events: observations of the fleet-wide power
# envelope (uncontrollable) and the supervisor's fleet-scoped responses
# (controllable), mirroring the per-chip capping alphabet one level up.
FLEET_CRITICAL = "fleetCritical"
FLEET_SAFE_POWER = "fleetSafePower"
CONTROL_FLEET_POWER = "controlFleetPower"
DECREASE_FLEET_POWER = "decreaseFleetPower"


def increase_power_event(cluster: int) -> str:
    """Controllable per-cluster budget-raise event name."""
    return f"increasePower{cluster}"


def decrease_power_event(cluster: int) -> str:
    """Controllable per-cluster budget-trim event name."""
    return f"decreasePower{cluster}"


def scalable_alphabet(n_clusters: int) -> Alphabet:
    """The case-study alphabet generalized to ``n_clusters``."""
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    events = [
        uncontrollable(CRITICAL),
        uncontrollable(SAFE_POWER),
        uncontrollable(QOS_MET),
        uncontrollable(QOS_NOT_MET),
        controllable(SWITCH_GAINS),
        controllable(SWITCH_QOS),
        controllable(CONTROL_POWER),
        controllable(DECREASE_CRITICAL_POWER),
    ]
    for cluster in range(n_clusters):
        events.append(controllable(increase_power_event(cluster)))
        events.append(controllable(decrease_power_event(cluster)))
    return Alphabet.of(events)


def scalable_qos_tracking_plant(
    n_clusters: int, alphabet: Alphabet | None = None
) -> Automaton:
    """QoS tracking with per-cluster budget regulation.

    Identical two-state structure for any cluster count — per-cluster
    actions are self-loops, which is exactly why the supervisor's state
    space stays flat as the platform grows.
    """
    sigma_full = alphabet or scalable_alphabet(n_clusters)
    names = [QOS_MET, QOS_NOT_MET]
    names += [increase_power_event(c) for c in range(n_clusters)]
    names += [decrease_power_event(c) for c in range(n_clusters)]
    sigma = Alphabet.of(sigma_full[name] for name in names)
    transitions = [
        ("Met", QOS_MET, "Met"),
        ("Met", QOS_NOT_MET, "NotMet"),
        ("NotMet", QOS_NOT_MET, "NotMet"),
        ("NotMet", QOS_MET, "Met"),
    ]
    for cluster in range(n_clusters):
        transitions.append((
            "Met", decrease_power_event(cluster), "Met"
        ))
        transitions.append((
            "NotMet", increase_power_event(cluster), "NotMet"
        ))
    return automaton_from_table(
        "QoSTrackN",
        sigma,
        transitions=transitions,
        initial="Met",
        marked=["Met"],
    )


def scalable_budget_lock_spec(
    n_clusters: int, alphabet: Alphabet | None = None
) -> Automaton:
    """No cluster's budget may be raised during a capping episode."""
    sigma_full = alphabet or scalable_alphabet(n_clusters)
    names = [CRITICAL, SAFE_POWER]
    names += [increase_power_event(c) for c in range(n_clusters)]
    sigma = Alphabet.of(sigma_full[name] for name in names)
    transitions = [
        ("Free", SAFE_POWER, "Free"),
        ("Free", CRITICAL, "Locked"),
        ("Locked", CRITICAL, "Locked"),
        ("Locked", SAFE_POWER, "Free"),
    ]
    for cluster in range(n_clusters):
        transitions.append(("Free", increase_power_event(cluster), "Free"))
    return automaton_from_table(
        "BudgetLockN",
        sigma,
        transitions=transitions,
        initial="Free",
        marked=["Free"],
    )


def budget_level_plant(
    cluster: int, levels: int, alphabet: Alphabet
) -> Automaton:
    """A ``levels``-state budget counter for one cluster.

    Tracks the cluster's power budget through discrete levels moved by
    its own increase/decrease events.  Unlike the paper's flat-state
    supervisors, composing one counter per cluster multiplies the state
    space by ``levels`` each time — ``levels ** n`` states overall —
    which is precisely what the model-check stress tests need: a family
    of *large* closed-loop models whose verification verdicts are known
    by construction (every state is marked, so the loop is nonblocking,
    and only controllable events move the counters).
    """
    if levels < 2:
        raise ValueError("need at least two budget levels")
    up = increase_power_event(cluster)
    down = decrease_power_event(cluster)
    sigma = Alphabet.of([alphabet[up], alphabet[down]])
    transitions = []
    for level in range(levels):
        if level + 1 < levels:
            transitions.append((f"L{level}", up, f"L{level + 1}"))
        if level > 0:
            transitions.append((f"L{level}", down, f"L{level - 1}"))
    return automaton_from_table(
        f"Budget{cluster}",
        sigma,
        transitions=transitions,
        initial="L0",
        marked=[f"L{level}" for level in range(levels)],
    )


def scalable_plant_components(
    n_clusters: int, levels: int, alphabet: Alphabet | None = None
) -> list[Automaton]:
    """The factor automata of the counter plant, uncomposed.

    Feed these to
    :func:`repro.automata.symbolic_synthesis.encode_composition` when
    the composed plant is too large to materialize (the benchmark
    suite's 7-cluster synthesis point).
    """
    sigma = alphabet or scalable_alphabet(n_clusters)
    components = [
        power_capping_plant(sigma),
        gain_mode_plant(sigma),
        scalable_qos_tracking_plant(n_clusters, sigma),
    ]
    components += [
        budget_level_plant(cluster, levels, sigma)
        for cluster in range(n_clusters)
    ]
    return components


def scalable_counter_plant(
    n_clusters: int, levels: int, alphabet: Alphabet | None = None
) -> Automaton:
    """The scalable plant with per-cluster budget counters composed in.

    State count grows as ``levels ** n_clusters`` times the flat plant's
    — the stress model for the symbolic-vs-explicit equivalence and
    speed-floor tests (``tests/perf/test_speed_floors.py``).
    """
    return compose_all(
        scalable_plant_components(n_clusters, levels, alphabet),
        name=f"ManyCoreCounterPlant[{n_clusters}x{levels}]",
    )


def scalable_plant(
    n_clusters: int, alphabet: Alphabet | None = None
) -> Automaton:
    """Composed plant for an N-cluster platform."""
    sigma = alphabet or scalable_alphabet(n_clusters)
    plant = compose_all(
        [
            power_capping_plant(sigma),
            gain_mode_plant(sigma),
            scalable_qos_tracking_plant(n_clusters, sigma),
        ],
        name=f"ManyCorePlant[{n_clusters}]",
    )
    return plant


def scalable_specification(
    n_clusters: int, alphabet: Alphabet | None = None
) -> Automaton:
    sigma = alphabet or scalable_alphabet(n_clusters)
    return compose_all(
        [three_band_spec(sigma), scalable_budget_lock_spec(n_clusters, sigma)],
        name=f"ManyCoreSpec[{n_clusters}]",
    )


def build_scalable_supervisor(n_clusters: int) -> VerifiedSupervisor:
    """Synthesize + verify the supervisor for an N-cluster platform."""
    sigma = scalable_alphabet(n_clusters)
    return synthesize_and_verify(
        scalable_plant(n_clusters, sigma),
        scalable_specification(n_clusters, sigma),
    )


# ----------------------------------------------------------------------
# Fleet level: per-fleet budget events layered over per-cluster events
# ----------------------------------------------------------------------
def fleet_alphabet(n_clusters: int) -> Alphabet:
    """The scalable alphabet extended with the fleet coordination events."""
    events = list(scalable_alphabet(n_clusters))
    events += [
        uncontrollable(FLEET_CRITICAL),
        uncontrollable(FLEET_SAFE_POWER),
        controllable(CONTROL_FLEET_POWER),
        controllable(DECREASE_FLEET_POWER),
    ]
    return Alphabet.of(events)


def fleet_power_plant(alphabet: Alphabet) -> Automaton:
    """Fleet-wide power-capping process.

    Structurally the per-chip capping plant one level up: after a
    ``fleetCritical`` interval the supervisor chooses the mild
    ``controlFleetPower`` (the fleet envelope *may* stay critical
    another interval) or the hard ``decreaseFleetPower`` (guaranteed to
    resolve the current fleet violation).
    """
    sigma = Alphabet.of(
        alphabet[name]
        for name in (
            FLEET_CRITICAL,
            FLEET_SAFE_POWER,
            CONTROL_FLEET_POWER,
            DECREASE_FLEET_POWER,
        )
    )
    return automaton_from_table(
        "FleetPowerCap",
        sigma,
        transitions=[
            ("FleetSafe", FLEET_CRITICAL, "FleetCapping1"),
            ("FleetCapping1", CONTROL_FLEET_POWER, "FleetMild1"),
            ("FleetCapping1", DECREASE_FLEET_POWER, "FleetHard"),
            ("FleetMild1", FLEET_SAFE_POWER, "FleetSafe"),
            ("FleetMild1", FLEET_CRITICAL, "FleetCapping2"),
            ("FleetCapping2", CONTROL_FLEET_POWER, "FleetMild2"),
            ("FleetCapping2", DECREASE_FLEET_POWER, "FleetHard"),
            ("FleetMild2", FLEET_SAFE_POWER, "FleetSafe"),
            ("FleetMild2", FLEET_CRITICAL, "FleetCapping3"),
            ("FleetCapping3", DECREASE_FLEET_POWER, "FleetHard"),
            ("FleetHard", FLEET_SAFE_POWER, "FleetSafe"),
            ("FleetHard", FLEET_CRITICAL, "FleetCapping1"),
        ],
        initial="FleetSafe",
        marked=["FleetSafe"],
    )


def fleet_three_band_spec(alphabet: Alphabet) -> Automaton:
    """Forbid a third consecutive unanswered fleet-critical interval.

    The fleet analogue of the paper's three-band rule: the count resets
    on ``fleetSafePower`` or on the hard ``decreaseFleetPower``; the
    mild ``controlFleetPower`` does not answer the violation.
    """
    sigma = Alphabet.of(
        alphabet[name]
        for name in (FLEET_CRITICAL, FLEET_SAFE_POWER, DECREASE_FLEET_POWER)
    )
    return automaton_from_table(
        "FleetThreeBandSpec",
        sigma,
        transitions=[
            ("FleetUnder", FLEET_SAFE_POWER, "FleetUnder"),
            ("FleetUnder", DECREASE_FLEET_POWER, "FleetUnder"),
            ("FleetUnder", FLEET_CRITICAL, "FleetAbove1"),
            ("FleetAbove1", FLEET_SAFE_POWER, "FleetUnder"),
            ("FleetAbove1", DECREASE_FLEET_POWER, "FleetUnder"),
            ("FleetAbove1", FLEET_CRITICAL, "FleetAbove2"),
            ("FleetAbove2", FLEET_SAFE_POWER, "FleetUnder"),
            ("FleetAbove2", DECREASE_FLEET_POWER, "FleetUnder"),
            ("FleetAbove2", FLEET_CRITICAL, "FleetThreshold"),
        ],
        initial="FleetUnder",
        marked=["FleetUnder"],
        forbidden=["FleetThreshold"],
    )


def fleet_budget_lock_spec(
    n_clusters: int, alphabet: Alphabet
) -> Automaton:
    """No cluster budget raise anywhere during a *fleet* capping episode.

    This is the per-fleet budget event layered over the per-cluster
    events: one fleet-wide observation gates every cluster's
    ``increasePower`` action, coupling all ``n_clusters`` budget
    counters to the fleet power machine in the synthesis product.
    """
    names = [FLEET_CRITICAL, FLEET_SAFE_POWER]
    names += [increase_power_event(c) for c in range(n_clusters)]
    sigma = Alphabet.of(alphabet[name] for name in names)
    transitions = [
        ("FleetFree", FLEET_SAFE_POWER, "FleetFree"),
        ("FleetFree", FLEET_CRITICAL, "FleetLocked"),
        ("FleetLocked", FLEET_CRITICAL, "FleetLocked"),
        ("FleetLocked", FLEET_SAFE_POWER, "FleetFree"),
    ]
    for cluster in range(n_clusters):
        transitions.append(
            ("FleetFree", increase_power_event(cluster), "FleetFree")
        )
    return automaton_from_table(
        "FleetBudgetLockSpec",
        sigma,
        transitions=transitions,
        initial="FleetFree",
        marked=["FleetFree"],
    )


def fleet_plant_components(
    n_clusters: int, levels: int, alphabet: Alphabet | None = None
) -> list[Automaton]:
    """The factor automata of the fleet counter plant, uncomposed.

    At fleet scale the composed plant has millions of states and must
    never be materialized — feed these components to
    :func:`repro.automata.symbolic_synthesis.encode_composition` and
    synthesize on the encoding.
    """
    sigma = alphabet or fleet_alphabet(n_clusters)
    components = [
        power_capping_plant(sigma),
        gain_mode_plant(sigma),
        scalable_qos_tracking_plant(n_clusters, sigma),
        fleet_power_plant(sigma),
    ]
    components += [
        budget_level_plant(cluster, levels, sigma)
        for cluster in range(n_clusters)
    ]
    return components


def fleet_counter_plant(
    n_clusters: int, levels: int, alphabet: Alphabet | None = None
) -> Automaton:
    """Explicitly composed fleet plant — small sizes and oracles only."""
    return compose_all(
        fleet_plant_components(n_clusters, levels, alphabet),
        name=f"FleetCounterPlant[{n_clusters}x{levels}]",
    )


def fleet_specification(
    n_clusters: int, alphabet: Alphabet | None = None
) -> Automaton:
    """Chip-level rules plus the fleet three-band and fleet budget lock."""
    sigma = alphabet or fleet_alphabet(n_clusters)
    return compose_all(
        [
            three_band_spec(sigma),
            scalable_budget_lock_spec(n_clusters, sigma),
            fleet_three_band_spec(sigma),
            fleet_budget_lock_spec(n_clusters, sigma),
        ],
        name=f"FleetSpec[{n_clusters}]",
    )
