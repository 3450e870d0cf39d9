"""The enumeration-tree driver shared by the four Steiner machines.

Section 4 grows a partial solution along an enumeration tree: a node
whose partial solution has a unique minimal completion is a leaf and
outputs it; any other node picks a branch (a terminal, or a pending
terminal pair) and has one child per valid path to it, each child
extending the partial solution by that path.  Section 5 reuses the
traversal unchanged for Steiner forests, terminal Steiner trees and
directed Steiner trees (Theorems 23-36); only the node test (Lemmas 16,
24, 16/30 and 35) and the paths a branch enumerates differ.

:class:`TreeSearch` is that traversal as an explicit-state machine.
Each call of :meth:`TreeSearch.advance` returns the next event:
``discover`` when a node is entered, ``solution`` at a leaf and
``examine`` when a node is left.  A subclass supplies what the paper
varies:

* ``_node_test()``: ``("leaf", solution)`` or ``("branch", branch)`` for
  the current partial solution;
* ``_open(branch)``: the suspendable path machine a branch enumerates,
  plus the frame fields the kind records for it (``frame_fields``);
* ``_thaw_paths(fstate)``: that path machine rebuilt from a frame's
  state, once the frame's undo record has been re-applied.

The driver owns everything else: the frame stack, the pending event
queue, the node counter, :meth:`TreeSearch.state` and
:meth:`TreeSearch.restore`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.enumeration.events import DISCOVER, EXAMINE, SOLUTION, Event
from repro.exceptions import InvalidInstanceError

Vertex = Hashable


def ordered_terminals(graph, terminals: Iterable[Vertex]) -> List[Vertex]:
    """Deduplicate ``terminals`` in order; raise on one missing from ``graph``."""
    ordered: Dict[Vertex, None] = {}
    for w in terminals:
        if w not in graph:
            raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
        ordered[w] = None
    return list(ordered)


class PartialTree:
    """The partial tree ``T`` of the node being visited, with
    O(path length) apply/undo.

    ``vertices`` is an insertion-ordered dict (used as an ordered set):
    its iteration order, the order in which vertices were attached to
    ``T``, is the order handed to the path enumerators as the source
    set.  That makes every order-sensitive decision a deterministic
    function of the search path itself, which is what lets a restored
    snapshot (which replays the surviving attach records) reproduce the
    uninterrupted run's remaining stream byte-for-byte; a plain ``set``'s
    iteration order would depend on its full mutation history, including
    branches long since undone.
    """

    __slots__ = ("edges", "vertices", "uncovered")

    def __init__(self, vertices: Sequence[Vertex], uncovered: Iterable[Vertex]):
        self.edges: Set[int] = set()
        self.vertices: Dict[Vertex, None] = dict.fromkeys(vertices)
        self.uncovered: Set[Vertex] = set(uncovered)

    def apply(self, path) -> Tuple[Tuple[int, ...], Tuple[Vertex, ...], Tuple[Vertex, ...]]:
        """Attach a path that meets ``T`` at most in its first vertex;
        return the undo record."""
        vertices = path.vertices
        if vertices[0] in self.vertices:
            new_vertices = tuple(vertices[1:])
        else:  # a path into an empty tree; the record gets its own tuple
            new_vertices = tuple(v for v in vertices)
        covered = tuple(v for v in new_vertices if v in self.uncovered)
        record = (tuple(path.arcs), new_vertices, covered)
        self.apply_record(record)
        return record

    def apply_record(self, record) -> None:
        """(Re-)apply an undo record."""
        new_edges, new_vertices, covered = record
        self.edges.update(new_edges)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)

    def undo(self, record) -> None:
        """Detach the path an undo record describes."""
        new_edges, new_vertices, covered = record
        self.edges.difference_update(new_edges)
        for v in new_vertices:
            del self.vertices[v]
        self.uncovered.update(covered)


class Frame:
    """One enumeration-tree activation: a path machine plus undo data."""

    __slots__ = ("paths", "record", "node_id", "depth", "fields")

    def __init__(self, paths, record, node_id: int, depth: int, fields: tuple):
        self.paths = paths  # suspendable path search (``next_path()``)
        self.record = record  # undo record of the path into this node (None at a root)
        self.node_id = node_id
        self.depth = depth
        self.fields = fields  # the kind's own values, named by ``frame_fields``


def _copy(value):
    """A copy of the list nesting of a query value (leaves shared)."""
    return [_copy(item) for item in value] if isinstance(value, list) else value


class TreeSearch:
    """Suspendable enumeration-tree traversal (see the module docstring).

    :meth:`state` captures the search as plain data: the query, the
    branching rule and backend, the node counter, the pending event
    queue and the frame stack (each frame holding its path machine's
    state, its undo record and the kind's frame fields).
    :meth:`restore` rebuilds the machine mid-enumeration so that the
    remaining stream is byte-identical to the uninterrupted run's tail.
    Static analysis (backend compilation, bridges, components) is
    recomputed from the instance, never serialized.
    """

    #: Constructor query arguments, in the order ``state()`` opens with.
    query_fields: Tuple[str, ...] = ()
    #: Names of the kind's frame fields, serialized after the common ones.
    frame_fields: Tuple[str, ...] = ()
    # Set by each machine's constructor before it calls ``_begin``.
    meter: Any
    improved: bool
    backend: str
    _dead: bool

    # -- what each machine supplies ------------------------------------
    def _node_test(self) -> Tuple[str, Any]:
        """``("leaf", solution)`` or ``("branch", branch)`` for the
        current partial solution."""
        raise NotImplementedError

    def _open(self, branch: Any) -> Tuple[Any, tuple]:
        """The path machine a branch enumerates, and the frame fields."""
        raise NotImplementedError

    def _thaw_paths(self, fstate: Dict[str, Any]) -> Any:
        """A frame's path machine rebuilt from its state."""
        raise NotImplementedError

    def _begin(self, query: Dict[str, Any], partial) -> None:
        """Shared constructor tail: an unstarted traversal of ``partial``."""
        self.query = query
        self.partial = partial
        self.node_counter = 0
        self.stack: List[Frame] = []
        self.pending: deque = deque()
        self.phase = 0  # 0 = not started, 1 = running, 2 = exhausted
        self.emitted = 0  # solutions produced (header bookkeeping)

    # ------------------------------------------------------------------
    def advance(self) -> Optional[Event]:
        """The next traversal event, or ``None`` when exhausted."""
        while True:
            if self.pending:
                event = self.pending.popleft()
                if event[0] == SOLUTION:
                    self.emitted += 1
                return event
            if self.phase == 2:
                return None
            if self.phase == 0:
                self.phase = 1
                self._start()
            else:
                self._step()

    def _start(self) -> None:
        """Visit the root (a dead instance has no enumeration tree)."""
        if self._dead:
            self.phase = 2
            return
        self._visit(None, 0)
        if not self.stack:
            self.phase = 2

    def _visit(self, record, depth: int) -> None:
        """Enter the node the partial solution now describes: output a
        leaf (and leave it again), or push a frame for its branch."""
        self.pending.append((DISCOVER, self.node_counter, depth))
        kind, payload = self._node_test()
        if kind == "leaf":
            self.pending.append((SOLUTION, payload))
            self.pending.append((EXAMINE, self.node_counter, depth))
            if record is not None:
                self.partial.undo(record)
            return
        paths, fields = self._open(payload)
        self.stack.append(Frame(paths, record, self.node_counter, depth, fields))

    def _step(self) -> None:
        """Expand the top frame by its next path, or retire it."""
        if not self.stack:
            self._finish()
            return
        frame = self.stack[-1]
        path = frame.paths.next_path()
        if path is None:
            self._retire(frame)
            return
        record = self.partial.apply(path)
        self.node_counter += 1
        self._visit(record, frame.depth + 1)

    def _retire(self, frame: Frame) -> None:
        """Leave an exhausted frame's node and undo the path into it."""
        self.pending.append((EXAMINE, frame.node_id, frame.depth))
        self.stack.pop()
        if frame.record is not None:
            self.partial.undo(frame.record)

    def _finish(self) -> None:
        """The stack ran empty: the traversal is over."""
        self.phase = 2

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Search-stack depth (tree frames + their path-machine frames)."""
        return len(self.stack) + sum(f.paths.frame_count for f in self.stack)

    def _walk_state(self) -> Dict[str, Any]:
        """Kind-specific position fields, serialized before the frames."""
        return {}

    def state(self) -> Dict[str, Any]:
        """Plain-data search state (static analysis is recomputed)."""
        state = {name: _copy(value) for name, value in self.query.items()}
        state.update(
            improved=self.improved,
            backend=self.backend,
            node_counter=self.node_counter,
            phase=self.phase,
            emitted=self.emitted,
            pending=list(self.pending),
        )
        state.update(self._walk_state())
        names = self.frame_fields
        state["frames"] = [
            {
                "paths": frame.paths.state(),
                "record": frame.record,
                "node_id": frame.node_id,
                "depth": frame.depth,
                **dict(zip(names, frame.fields)),
            }
            for frame in self.stack
        ]
        return state

    @classmethod
    def restore(cls, instance, state: Dict[str, Any], meter=None):
        """Rebuild a machine over ``instance`` from a :meth:`state` dict.

        ``instance`` must be (a deterministic reconstruction of) the
        instance the state was captured on; enumerator-level snapshots
        bind that with the instance fingerprint.
        """
        build: Any = cls  # each machine's constructor takes its query first
        machine = build(
            instance,
            *(state[name] for name in cls.query_fields),
            meter=meter,
            improved=state["improved"],
            backend=state["backend"],
        )
        machine.node_counter = state["node_counter"]
        machine.phase = state["phase"]
        machine.emitted = state["emitted"]
        machine.pending = deque(state["pending"])
        machine._replay(state)
        return machine

    def _replay(self, state: Dict[str, Any]) -> None:
        """Re-apply each frame's undo record and thaw its path machine."""
        for fstate in state["frames"]:
            record = fstate["record"]
            if record is not None:
                self.partial.apply_record(record)
            self.stack.append(
                Frame(
                    self._thaw_paths(fstate),
                    record,
                    fstate["node_id"],
                    fstate["depth"],
                    tuple(fstate[name] for name in self.frame_fields),
                )
            )
