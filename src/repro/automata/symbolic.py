"""Bitset-encoded symbolic reachability kernel for DES automata.

Explicit-state verification walks Python sets of :class:`State` objects;
that is fine for the case-study models but quadratic constant factors
make it the scaling wall the paper solved by leaning on Supremica's
symbolic engines (Section 4.3.4, ROADMAP item 4).  This module is the
set-based replacement: states become integer indices, state *sets*
become numpy bool vectors, and one BFS level advances every frontier
state over one event with a single vectorized gather/scatter — no
per-state Python loops.

Three ingredients:

* :func:`encode_automaton` — freeze an :class:`Automaton` into sorted
  index space (:class:`EncodedAutomaton`) with per-event ``src``/``dst``
  transition arrays.
* :func:`reachable_product` — build the encoded product of two
  deterministic factors (synchronous, synthesis or controllability
  semantics) over the pairs reachable from the joint initial pair,
  without materializing a composed :class:`Automaton`.
* :func:`forward_reachable` / :func:`backward_reachable` /
  :func:`forward_search` — level-synchronized bitset BFS; the search
  variant records parent pointers so shortest counterexample event
  traces fall out of the same pass (:func:`witness_trace`).

Everything is deterministic: states are indexed in sorted-name order,
events in alphabet (sorted) order, and tie-breaks during parent claiming
always favour the smallest event index, then the smallest source index.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.automata.automaton import Automaton

__all__ = [
    "EncodedAutomaton",
    "PairEncoding",
    "SearchTree",
    "backward_reachable",
    "encode_automaton",
    "forward_reachable",
    "forward_search",
    "nearest_state",
    "reachable_product",
    "restrict_states",
    "witness_trace",
]

_INDEX_DTYPE = np.int64


@dataclass
class EncodedAutomaton:
    """An automaton flattened into index space for vectorized search.

    ``src[e]``/``dst[e]`` hold the source/target state indices of every
    transition on event ``e``, sorted by ``(source, target)``.  Product
    encodings have ``state_names=None`` (labels are derived on demand
    from the factor encodings) and ``enabled=None``.
    """

    name: str
    n_states: int
    event_names: tuple[str, ...]
    event_controllable: np.ndarray
    src: tuple[np.ndarray, ...]
    dst: tuple[np.ndarray, ...]
    initial: int
    marked: np.ndarray
    forbidden: np.ndarray
    state_names: tuple[str, ...] | None = None
    enabled: np.ndarray | None = None
    _event_index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._event_index:
            self._event_index = {
                name: i for i, name in enumerate(self.event_names)
            }

    @property
    def n_events(self) -> int:
        return len(self.event_names)

    @property
    def n_transitions(self) -> int:
        return int(sum(arr.size for arr in self.src))

    def event_index(self, name: str) -> int | None:
        return self._event_index.get(name)

    def state_label(self, index: int) -> str:
        if self.state_names is not None:
            return self.state_names[index]
        return f"#{index}"

    def event_enabled(self, name: str) -> np.ndarray:
        """Bool vector of states where ``name`` is enabled (zeros when
        the event is outside this alphabet)."""
        index = self.event_index(name)
        if index is None or self.enabled is None:
            return np.zeros(self.n_states, dtype=bool)
        return self.enabled[index]


# Encoding memo: verification and synthesis on the same model used to
# re-encode it on every call (every verify_supervisor re-froze the plant).
# Keyed weakly by the Automaton instance so encodings die with their
# models, with a content fingerprint — transition count first, the same
# cheap change detector the supervisor-action caches use — so mutating a
# memoized automaton (more transitions, new marking, moved initial)
# transparently re-encodes.  Kept outside the instance on purpose:
# attaching it as an attribute would change the automaton's pickle bytes,
# which persistence bundles compare byte-for-byte.
_ENCODE_MEMO: "weakref.WeakKeyDictionary[Automaton, tuple[tuple[object, ...], EncodedAutomaton]]" = (
    weakref.WeakKeyDictionary()
)


def _encode_fingerprint(automaton: Automaton) -> tuple[object, ...]:
    initial = automaton._initial
    return (
        automaton.name,
        automaton.n_transitions,
        len(automaton._states),
        len(automaton._marked),
        len(automaton._forbidden),
        len(automaton.alphabet),
        initial.name if initial is not None else None,
    )


def encode_automaton(automaton: Automaton) -> EncodedAutomaton:
    """Freeze ``automaton`` into sorted index space (memoized).

    The returned encoding is shared between calls while the automaton's
    content fingerprint is unchanged; treat it as immutable.
    """
    fingerprint = _encode_fingerprint(automaton)
    entry = _ENCODE_MEMO.get(automaton)
    if entry is not None and entry[0] == fingerprint:
        return entry[1]
    encoded = _encode_automaton_uncached(automaton)
    _ENCODE_MEMO[automaton] = (fingerprint, encoded)
    return encoded


def _encode_automaton_uncached(automaton: Automaton) -> EncodedAutomaton:
    state_names = tuple(sorted(s.name for s in automaton.states))
    state_index = {name: i for i, name in enumerate(state_names)}
    event_names = tuple(e.name for e in automaton.alphabet)
    event_index = {name: i for i, name in enumerate(event_names)}
    n_states = len(state_names)
    n_events = len(event_names)

    # One flat pass plus a single global lexsort beats per-event sorts:
    # the arrays come out grouped by event and sorted by (src, dst)
    # within each group, which is the order the search kernels rely on.
    # Friend access to the raw transition map: at hundreds of thousands
    # of transitions even the iter_transitions generator frames show up.
    triples = [
        (event_index[event.name], state_index[source.name], state_index[target.name])
        for (source, event), target in automaton._delta.items()
    ]
    if triples:
        data = np.asarray(triples, dtype=_INDEX_DTYPE)
        ev, src_all, dst_all = data[:, 0], data[:, 1], data[:, 2]
        order = np.lexsort((dst_all, src_all, ev))
        ev, src_all, dst_all = ev[order], src_all[order], dst_all[order]
    else:
        ev = src_all = dst_all = np.asarray([], dtype=_INDEX_DTYPE)
    bounds = np.searchsorted(ev, np.arange(n_events + 1))
    src_arrays = [
        src_all[bounds[e] : bounds[e + 1]] for e in range(n_events)
    ]
    dst_arrays = [
        dst_all[bounds[e] : bounds[e + 1]] for e in range(n_events)
    ]
    enabled = np.zeros((n_events, n_states), dtype=bool)
    if ev.size:
        enabled[ev, src_all] = True

    marked = np.zeros(n_states, dtype=bool)
    for state in automaton.marked:
        marked[state_index[state.name]] = True
    forbidden = np.zeros(n_states, dtype=bool)
    for state in automaton.forbidden:
        forbidden[state_index[state.name]] = True

    controllable = np.array(
        [event.controllable for event in automaton.alphabet], dtype=bool
    )
    initial = (
        state_index[automaton.initial.name] if automaton.has_initial else -1
    )
    return EncodedAutomaton(
        name=automaton.name,
        n_states=n_states,
        event_names=event_names,
        event_controllable=controllable,
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=marked,
        forbidden=forbidden,
        state_names=state_names,
        enabled=enabled,
    )


# ----------------------------------------------------------------------
# Products over reachable pairs
# ----------------------------------------------------------------------
@dataclass
class PairEncoding:
    """An encoded product over its reachable pairs, plus the factor
    encodings that label them.

    Product state ``k`` is the pair key ``pairs[k] = i * right.n_states +
    j``.  ``pairs`` is ascending, so a product index is the rank of its
    key among the reachable keys: index order is key order, and every
    smallest-index tie-break picks the same pair it would pick over the
    full ``left.n_states * right.n_states`` key space.
    """

    product: EncodedAutomaton
    left: EncodedAutomaton
    right: EncodedAutomaton
    pairs: np.ndarray

    def split(self, state: int) -> tuple[int, int]:
        return divmod(int(self.pairs[state]), self.right.n_states)

    def factor_states(self) -> tuple[np.ndarray, np.ndarray]:
        """The left and right factor index of every product state."""
        return np.divmod(self.pairs, self.right.n_states)

    def index(self, i: int, j: int) -> int:
        """The product state of factor pair ``(i, j)``; ``-1`` when the
        pair is unreachable."""
        key = i * self.right.n_states + j
        state = int(np.searchsorted(self.pairs, key))
        if state < self.pairs.size and self.pairs[state] == key:
            return state
        return -1

    def pair_label(self, state: int) -> str:
        i, j = self.split(state)
        return f"{self.left.state_label(i)}.{self.right.state_label(j)}"


def _move_table(enc: EncodedAutomaton, scale: int, disabled: int) -> np.ndarray:
    """``table[e, s]`` is ``scale`` times the successor of state ``s`` on
    event ``e`` (``scale >= 0``), and ``disabled`` (``< 0``) where the
    event is disabled.

    Raises ``ValueError`` when an event has two transitions from one
    state: a dense table holds one successor, and keeping the last
    write would silently drop the other edge.
    """
    table = np.full((enc.n_events, enc.n_states), disabled, dtype=_INDEX_DTYPE)
    for e in range(enc.n_events):
        src = enc.src[e]
        table[e, src] = enc.dst[e] * scale
        if np.count_nonzero(table[e] >= 0) != src.size:
            raise ValueError(
                f"automaton {enc.name!r} is not deterministic: event "
                f"{enc.event_names[e]!r} has two transitions from one state"
            )
    return table


_SEMANTICS = ("synchronous", "synthesis", "controllability")


def _event_plan(
    left: EncodedAutomaton, right: EncodedAutomaton, semantics: str
) -> list[tuple[str, int | None, int | None, bool]]:
    """Per product event ``(name, left event, right event, controllable)``.

    A factor whose event index is ``None`` holds still while the other
    moves; an event neither factor moves on never fires.
    """
    if semantics == "controllability":
        # Only plant events drive the walk; one the supervisor's
        # alphabet lacks counts as disabled by the supervisor.
        plan = []
        for e, name in enumerate(left.event_names):
            r = right.event_index(name)
            l = e if r is not None else None
            plan.append((name, l, r, bool(left.event_controllable[e])))
        return plan
    plan = []
    for name in sorted(set(left.event_names) | set(right.event_names)):
        l, r = left.event_index(name), right.event_index(name)
        if l is not None:
            controllable = bool(left.event_controllable[l])
        else:
            assert r is not None
            controllable = bool(right.event_controllable[r])
            if semantics == "synthesis":
                # A spec-private event is a constraint the plant cannot
                # execute: silenced rather than interleaved.
                r = None
        plan.append((name, l, r, controllable))
    return plan


def reachable_product(
    left: EncodedAutomaton,
    right: EncodedAutomaton,
    semantics: str = "synchronous",
) -> PairEncoding:
    """The product of two deterministic encodings over the pairs
    reachable from the joint initial pair.

    ``semantics`` fixes what each event does:

    * ``"synchronous"`` — ``left || right`` (Section 4.3.1): shared
      events synchronize, private events interleave;
    * ``"synthesis"`` — the plant x spec product: as synchronous, but
      spec-private events are silenced (a specification constrains only
      what the plant can do);
    * ``"controllability"`` — the joint plant/supervisor walk: only
      plant events fire, each only when both factors enable it, so a
      plant event the supervisor's alphabet lacks is disabled.

    A pair is marked iff both components are, forbidden if either is.
    The search is a level-synchronized BFS over pair keys with one
    vectorized successor-table lookup per event per level; the
    transition arrays are then built in one pass over the reachable
    pairs.  The set of found pairs is a bool grid over the cross
    product when that grid has no more cells than the two successor
    tables (``_grid_fits``), and a sorted key array otherwise; both
    forms give byte-identical encodings.
    """
    return _reachable_product(left, right, semantics, _grid_fits(left, right))


def _grid_fits(left: EncodedAutomaton, right: EncodedAutomaton) -> bool:
    """Whether a ``left x right`` bool grid has no more cells than the
    successor tables of both factors, so tracking found pairs in it
    never raises the product builder's memory past what it holds."""
    return left.n_states * right.n_states <= (
        left.n_events * left.n_states + right.n_events * right.n_states
    )


def _reachable_product(
    left: EncodedAutomaton,
    right: EncodedAutomaton,
    semantics: str,
    dense: bool,
) -> PairEncoding:
    """:func:`reachable_product` with the found-pair form chosen by the
    caller: a bool grid when ``dense``, sorted keys otherwise."""
    if semantics not in _SEMANTICS:
        raise ValueError(
            f"unknown product semantics {semantics!r}; "
            f"expected one of {_SEMANTICS}"
        )
    plan = _event_plan(left, right, semantics)
    moves = [
        (e, l, r)
        for e, (_, l, r, _) in enumerate(plan)
        if l is not None or r is not None
    ]
    nb = right.n_states
    # Move tables hold key offsets: a left move adds its successor's row
    # offset ``ni * nb``, a right move its successor column ``nj``.  A
    # disabled move is so negative that any key it takes part in is
    # negative, so one sign test finds the enabled pairs.
    disabled = -(left.n_states * nb + 1)
    left_moves = _move_table(left, nb, disabled)
    right_moves = _move_table(right, 1, disabled)

    def successors(keys: np.ndarray):
        """Per moving event: its index, the keys it is enabled at and
        the successor keys where enabled."""
        i = keys // nb
        row = i * nb
        j = keys - row
        for e, l, r in moves:
            if r is None:
                targets = left_moves[l].take(i) + j
            elif l is None:
                targets = right_moves[r].take(j) + row
            else:
                targets = left_moves[l].take(i) + right_moves[r].take(j)
            ok = targets >= 0
            yield e, ok, targets[ok]

    empty = np.asarray([], dtype=_INDEX_DTYPE)
    src_arrays = [empty] * len(plan)
    dst_arrays = [empty] * len(plan)
    if left.initial >= 0 and right.initial >= 0:
        start = left.initial * nb + right.initial
        if dense:
            pairs, rank = _grid_search(start, successors, left.n_states, nb)
        else:
            pairs, rank = _sorted_search(start, successors)
        initial = int(np.searchsorted(pairs, start))
        # Sources come out ascending and each (source, event) has at
        # most one target, so every event's arrays are sorted by
        # (source, target).
        for e, ok, targets in successors(pairs):
            src_arrays[e] = np.flatnonzero(ok)
            dst_arrays[e] = rank(targets)
    else:
        pairs, initial = empty, -1

    i, j = np.divmod(pairs, nb)
    joiner = "/" if semantics == "controllability" else "||"
    product = EncodedAutomaton(
        name=f"{left.name}{joiner}{right.name}",
        n_states=int(pairs.size),
        event_names=tuple(name for name, *_ in plan),
        event_controllable=np.asarray([c for *_, c in plan], dtype=bool),
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=left.marked[i] & right.marked[j],
        forbidden=left.forbidden[i] | right.forbidden[j],
    )
    return PairEncoding(product=product, left=left, right=right, pairs=pairs)


def _frontier_keys(successors, frontier: np.ndarray) -> np.ndarray:
    """Every successor key of ``frontier``, duplicates included."""
    return np.concatenate(
        [np.asarray([], dtype=_INDEX_DTYPE), *(t for _, _, t in successors(frontier))]
    )


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # Sort-based dedup: np.unique's hash path is several times slower
    # on these key batches.
    keys = np.sort(keys)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _sorted_search(start: int, successors):
    """BFS holding the found keys as one ascending array; returns the
    keys and their rank lookup (key -> product index)."""
    pairs = np.asarray([start], dtype=_INDEX_DTYPE)
    frontier = pairs
    while frontier.size:
        found = _sorted_unique(_frontier_keys(successors, frontier))
        at = np.searchsorted(pairs, found)
        fresh = pairs[np.minimum(at, pairs.size - 1)] != found
        frontier = found[fresh]
        pairs = np.insert(pairs, at[fresh], frontier)
    return pairs, lambda keys: np.searchsorted(pairs, keys)


def _grid_search(start: int, successors, na: int, nb: int):
    """BFS marking found pairs in an ``(na, nb)`` bool grid; returns the
    ascending keys and their rank lookup (key -> product index).

    A found pair's rank is its row's offset (the found pairs in the
    rows above) plus its in-row prefix count (the found pairs before it
    in its own row).  The prefix counts are written only at found
    cells, in the narrowest unsigned dtype that holds ``nb``.
    """
    seen = np.zeros(na * nb, dtype=bool)
    seen[start] = True
    frontier = np.asarray([start], dtype=_INDEX_DTYPE)
    while frontier.size:
        found = _frontier_keys(successors, frontier)
        frontier = _sorted_unique(found[~seen[found]])
        seen[frontier] = True
    pairs = np.flatnonzero(seen)
    rows = pairs // nb
    per_row = np.bincount(rows, minlength=na)
    row_offset = np.cumsum(per_row) - per_row
    in_row = np.zeros(na * nb, dtype=np.min_scalar_type(nb))
    in_row[pairs] = np.arange(pairs.size) - row_offset[rows]
    return pairs, lambda keys: row_offset[keys // nb] + in_row[keys]


def restrict_states(enc: EncodedAutomaton, keep: np.ndarray) -> EncodedAutomaton:
    """The sub-encoding induced by ``keep`` (a bool mask).

    State indices are preserved (masks stay comparable across the
    original and the restriction); transitions touching a dropped state
    are removed, and dropped states lose their marked/forbidden/initial
    status.
    """
    src_arrays: list[np.ndarray] = []
    dst_arrays: list[np.ndarray] = []
    enabled = (
        np.zeros((enc.n_events, enc.n_states), dtype=bool)
        if enc.enabled is not None
        else None
    )
    for e in range(enc.n_events):
        src, dst = enc.src[e], enc.dst[e]
        if src.size:
            hits = keep[src] & keep[dst]
            src, dst = src[hits], dst[hits]
        src_arrays.append(src)
        dst_arrays.append(dst)
        if enabled is not None and src.size:
            enabled[e, src] = True
    initial = (
        enc.initial if enc.initial >= 0 and keep[enc.initial] else -1
    )
    return EncodedAutomaton(
        name=enc.name,
        n_states=enc.n_states,
        event_names=enc.event_names,
        event_controllable=enc.event_controllable,
        src=tuple(src_arrays),
        dst=tuple(dst_arrays),
        initial=initial,
        marked=enc.marked & keep,
        forbidden=enc.forbidden & keep,
        state_names=enc.state_names,
        enabled=enabled,
    )


# ----------------------------------------------------------------------
# Bitset breadth-first search
# ----------------------------------------------------------------------
def _start_mask(enc: EncodedAutomaton, start: np.ndarray | None) -> np.ndarray:
    if start is not None:
        return start.astype(bool, copy=True)
    mask = np.zeros(enc.n_states, dtype=bool)
    if enc.initial >= 0:
        mask[enc.initial] = True
    return mask


# A binary-search gather costs ~log2(T) per frontier state; a full scan
# costs T.  Below this frontier-to-transition ratio the gather wins.
_GATHER_FACTOR = 16


def _frontier_edges(
    keys: np.ndarray,
    values: np.ndarray,
    frontier_mask: np.ndarray,
    frontier_indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Edges whose (ascending-sorted) ``keys`` entry lies in the
    frontier, in array order.

    Narrow frontiers use binary search over the sorted key array so only
    the frontier states' edges are touched — a whole BFS then costs
    O(E) amortized instead of re-scanning every transition array once
    per level.  Wide frontiers fall back to the vectorized full scan,
    which is cheaper than per-state bisection.  Either way edge
    positions come out ascending, preserving the smallest-source-first
    claim order :func:`forward_search` relies on.
    """
    if frontier_indices.size * _GATHER_FACTOR >= keys.size:
        hits = frontier_mask[keys]
        return keys[hits], values[hits]
    lo = np.searchsorted(keys, frontier_indices, side="left")
    hi = np.searchsorted(keys, frontier_indices, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        empty = np.asarray([], dtype=_INDEX_DTYPE)
        return empty, empty
    starts = np.cumsum(counts) - counts
    pos = np.repeat(lo - starts, counts) + np.arange(
        total, dtype=_INDEX_DTYPE
    )
    return keys[pos], values[pos]


def forward_reachable(
    enc: EncodedAutomaton,
    start: np.ndarray | None = None,
    event_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Bool mask of states reachable from ``start`` (default: initial),
    optionally restricted to events selected by ``event_mask``."""
    visited = _start_mask(enc, start)
    frontier = visited.copy()
    while frontier.any():
        fr = np.flatnonzero(frontier)
        nxt = np.zeros(enc.n_states, dtype=bool)
        for e in range(enc.n_events):
            if event_mask is not None and not event_mask[e]:
                continue
            src = enc.src[e]
            if not src.size:
                continue
            _, targets = _frontier_edges(src, enc.dst[e], frontier, fr)
            if targets.size:
                nxt[targets] = True
        frontier = nxt & ~visited
        visited |= frontier
    return visited


def backward_reachable(
    enc: EncodedAutomaton,
    targets: np.ndarray | None = None,
    event_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Bool mask of states that can reach ``targets`` (default: marked
    states) — the coaccessibility operator in bitset form."""
    visited = (
        targets.astype(bool, copy=True)
        if targets is not None
        else enc.marked.copy()
    )
    # Transition arrays are sorted by source; the backward walk keys on
    # targets.  Wide frontiers scan the unsorted arrays directly; the
    # first narrow frontier sorts an event's arrays by target once and
    # caches them for the remaining levels.
    by_dst: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    frontier = visited.copy()
    while frontier.any():
        fr = np.flatnonzero(frontier)
        nxt = np.zeros(enc.n_states, dtype=bool)
        for e in range(enc.n_events):
            if event_mask is not None and not event_mask[e]:
                continue
            dst = enc.dst[e]
            if not dst.size:
                continue
            if fr.size * _GATHER_FACTOR >= dst.size:
                hits = frontier[dst]
                if hits.any():
                    nxt[enc.src[e][hits]] = True
                continue
            pair = by_dst.get(e)
            if pair is None:
                order = np.argsort(dst, kind="stable")
                pair = (dst[order], enc.src[e][order])
                by_dst[e] = pair
            _, sources = _frontier_edges(pair[0], pair[1], frontier, fr)
            if sources.size:
                nxt[sources] = True
        frontier = nxt & ~visited
        visited |= frontier
    return visited


@dataclass
class SearchTree:
    """Forward BFS result with parent pointers for trace extraction."""

    visited: np.ndarray
    parent_state: np.ndarray
    parent_event: np.ndarray
    depth: np.ndarray


def forward_search(
    enc: EncodedAutomaton, start: np.ndarray | None = None
) -> SearchTree:
    """Level-synchronized forward BFS recording shortest-path parents.

    Parent claiming is deterministic: within a level, events are
    processed in alphabet order and a state keeps the first claim —
    smallest event index, then smallest source index.
    """
    n = enc.n_states
    visited = _start_mask(enc, start)
    parent_state = np.full(n, -1, dtype=_INDEX_DTYPE)
    parent_event = np.full(n, -1, dtype=_INDEX_DTYPE)
    depth = np.full(n, -1, dtype=_INDEX_DTYPE)
    depth[visited] = 0
    frontier = visited.copy()
    level = 0
    while frontier.any():
        level += 1
        fr = np.flatnonzero(frontier)
        claimed = visited.copy()
        for e in range(enc.n_events):
            src = enc.src[e]
            if not src.size:
                continue
            sources, targets = _frontier_edges(src, enc.dst[e], frontier, fr)
            if not targets.size:
                continue
            hits = ~claimed[targets]
            if not hits.any():
                continue
            sources = sources[hits]
            targets = targets[hits]
            # First occurrence wins: edge positions are ascending in the
            # (source, target)-sorted arrays, so ties resolve to the
            # smallest source.
            fresh, first = np.unique(targets, return_index=True)
            parent_state[fresh] = sources[first]
            parent_event[fresh] = e
            depth[fresh] = level
            claimed[fresh] = True
        frontier = claimed & ~visited
        visited = claimed
    return SearchTree(
        visited=visited,
        parent_state=parent_state,
        parent_event=parent_event,
        depth=depth,
    )


def witness_trace(
    enc: EncodedAutomaton, tree: SearchTree, target: int
) -> tuple[str, ...]:
    """The event trace from the search root to ``target`` (shortest, by
    construction of :func:`forward_search`)."""
    events: list[str] = []
    state = int(target)
    while tree.parent_state[state] >= 0:
        events.append(enc.event_names[int(tree.parent_event[state])])
        state = int(tree.parent_state[state])
    events.reverse()
    return tuple(events)


def nearest_state(tree: SearchTree, mask: np.ndarray) -> int:
    """The visited state in ``mask`` with minimal BFS depth (ties break
    to the smallest index); ``-1`` when none is reachable."""
    candidates = np.flatnonzero(mask & tree.visited)
    if not candidates.size:
        return -1
    return int(candidates[np.argmin(tree.depth[candidates])])
