"""Kernel-backed Read–Tarjan path enumeration (fast backend of §3).

This module re-implements the Section 3 enumerator of
:mod:`repro.paths.read_tarjan` directly on the integer kernel
(:class:`repro.graphs.fastgraph.FastGraph` /
:class:`~repro.graphs.fastgraph.FastDiGraph`):

* the auxiliary S–T digraph of the paper's reduction is never
  materialized — S/T membership is a role bit per vertex, the super
  endpoints are the two ids past the vertex space, and auxiliary arc
  ids start past the real arc id space;
* reachability is one byte per vertex encoding reached / unvisited
  target / excluded in a single array read per scanned arc;
* the backward reach set of ``F-STP`` is cached across consecutive
  sibling advances of one enumeration-tree frame (it is deterministic
  in the frame's blocked state, which is unchanged between them);
* adjacency is iterated from the kernel's cached pair/neighbour lists.

**Equivalence contract.**  Every order-sensitive decision is made in
the same sequence as the generic implementation makes it on the
equivalent auxiliary digraph: out-arcs of a real vertex are visited in
incidence order (equal to the aux digraph's per-tail insertion order),
the super source's out-arcs follow the caller's source order
(ordered dedup, same as the generic builders), and the ``F-STP``
forward DFS uses the same explicit stack discipline.  Reachability
sweeps are membership-only in both implementations, so their internal
traversal order is free.  Consequently the emitted solution stream is
byte-identical to the object backend's on instances with plain-int
vertices (the engine's relabeled normal form); the property tests in
``tests/test_backend_equivalence.py`` pin this down.

**Sweep strategies.**  Undirected contexts run their reachability
sweeps (F-STP's backward pass, Lemma 11's extendibility roll) in one of
two decision-identical ways, chosen per context from the kernel's live
size (:data:`BITSET_MIN_DEGREE`): scalar sweeps over the incidence
lists, or bitset sweeps that expand whole frontiers by OR-ing the
kernel's adjacency masks (:meth:`FastGraph.bit_rows`).  Both compute
the same reach *set*; nothing observes the order it was found in.

Masked enumeration: ``excluded`` vertices are pre-blocked, which is
stream-equivalent to deleting them from the graph (the generic backend
builds vertex-induced subcopies instead); the terminal-Steiner
enumerator uses this to run all its per-component path queries against
one compiled kernel.

Meter note: the fast engine charges the meter in per-sweep batches
(``meter.tick(k)``), so op totals are close to, but not identical
with, the object backend's per-arc ticks.  Budgets and deadlines stop
the enumeration all the same.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.enumeration.events import DISCOVER, EXAMINE, SOLUTION, Event
from repro.graphs.fastgraph import FastDiGraph, FastGraph
from repro.paths.read_tarjan import Path

_SRC = 1  # status bit: vertex is in S (arcs into it dropped)
_TGT = 2  # status bit: vertex is in T (arcs out of it dropped)

#: Average degree (``2m / n`` over the live kernel) from which an
#: undirected context takes the bitset sweeps.  Measured crossover of
#: bitset over scalar wall on tree-plus-chords graphs with n = 120-480;
#: see the dense-strategy section of docs/guides/graphs.md.
BITSET_MIN_DEGREE = 24


class _Ctx:
    """Per-enumeration state shared by the F-STP / Lemma 11 subroutines."""

    n2: int
    pairs: Optional[List[List[Tuple[int, int]]]]
    nbrs: Optional[List[List[int]]]
    esum: Optional[List[int]]
    eu: Optional[List[int]]
    opairs: Optional[List[List[Tuple[int, int]]]]
    ipairs: Optional[List[List[Tuple[int, int]]]]
    itails: Optional[List[List[int]]]
    at: Optional[List[int]]
    ah: Optional[List[int]]
    status: bytearray
    src_list: List[int]
    tgt_list: List[int]
    tindex: dict
    aux_s: int
    aux_t: int
    s_star: int
    t_star: int
    directed: bool
    meter: object
    vis: List[int]
    vbox: List[int]
    pvert: List[int]
    parc: List[int]
    excl: List[int]
    blk_list: List[int]
    bits: Optional["_BitView"]
    backward: Any
    extendible: Any

    __slots__ = (
        "n2",
        "pairs",
        "nbrs",
        "esum",
        "eu",
        "opairs",
        "ipairs",
        "itails",
        "at",
        "ah",
        "status",
        "src_list",
        "tgt_list",
        "tindex",
        "aux_s",
        "aux_t",
        "s_star",
        "t_star",
        "directed",
        "meter",
        "vis",
        "vbox",
        "pvert",
        "parc",
        "excl",
        "blk_list",
        "bits",
        "backward",
        "extendible",
    )


def _und_ctx(
    fg: FastGraph,
    src_list: List[int],
    tgt_list: List[int],
    excluded: Iterable[int],
    meter,
) -> _Ctx:
    ctx = _Ctx()
    n = fg.n_space
    ctx.n2 = n + 2
    ctx.pairs = fg.incidence_pairs()
    ctx.nbrs = fg.neighbor_lists()
    ctx.esum = fg._esum
    ctx.eu = fg._eu
    ctx.opairs = ctx.ipairs = ctx.itails = ctx.at = ctx.ah = None
    status = bytearray(ctx.n2)
    for v in src_list:
        status[v] |= _SRC
    for v in tgt_list:
        status[v] |= _TGT
    ctx.status = status
    ctx.excl = list(excluded)
    ctx.blk_list = []
    ctx.src_list = src_list
    ctx.tgt_list = tgt_list
    ctx.tindex = {w: j for j, w in enumerate(tgt_list)}
    ctx.aux_s = 2 * fg.m_space
    ctx.aux_t = ctx.aux_s + len(src_list)
    ctx.s_star = n
    ctx.t_star = n + 1
    ctx.directed = False
    ctx.meter = meter
    scratch = fg._scratch
    if scratch is None or len(scratch[0]) < ctx.n2:
        scratch = fg._scratch = ([0] * ctx.n2, [0] * ctx.n2, [0] * ctx.n2, [0])
    ctx.vis, ctx.pvert, ctx.parc, ctx.vbox = scratch
    plain = not (src_list or tgt_list)
    n_live, m_live = fg.num_vertices, fg.num_edges
    # Bitset sweeps from the measured degree crossover on, as long as
    # the rows (n_live masks of n bits) stay within the footprint of
    # the incidence lists themselves (2m entries of >= 64 bytes).
    if 2 * m_live >= BITSET_MIN_DEGREE * n_live and n_live * n <= 1024 * m_live:
        ctx.bits = _bit_view(fg, ctx)
        ctx.backward = _backward_und_plain_bits if plain else _backward_und_bits
        ctx.extendible = _extendible_und_plain_bits if plain else _extendible_und_bits
    else:
        ctx.bits = None
        ctx.backward = _backward_und_plain if plain else _backward_und
        ctx.extendible = _extendible_und_plain if plain else _extendible_und
    return ctx


def _dir_ctx(
    fd: FastDiGraph, src_list: List[int], tgt_list: List[int], meter
) -> _Ctx:
    ctx = _Ctx()
    n = fd.n_space
    ctx.n2 = n + 2
    ctx.pairs = ctx.nbrs = ctx.esum = ctx.eu = None
    ctx.opairs, ctx.ipairs, ctx.itails = fd.arc_pairs()
    ctx.at = fd._at
    ctx.ah = fd._ah
    status = bytearray(ctx.n2)
    for v in src_list:
        status[v] |= _SRC
    for v in tgt_list:
        status[v] |= _TGT
    ctx.status = status
    ctx.excl = []
    ctx.blk_list = []
    ctx.src_list = src_list
    ctx.tgt_list = tgt_list
    ctx.tindex = {w: j for j, w in enumerate(tgt_list)}
    ctx.aux_s = fd.m_space
    ctx.aux_t = ctx.aux_s + len(src_list)
    ctx.s_star = n
    ctx.t_star = n + 1
    ctx.directed = True
    ctx.meter = meter
    scratch = fd._scratch
    if scratch is None or len(scratch[0]) < ctx.n2:
        scratch = fd._scratch = ([0] * ctx.n2, [0] * ctx.n2, [0] * ctx.n2, [0])
    ctx.vis, ctx.pvert, ctx.parc, ctx.vbox = scratch
    ctx.bits = None
    ctx.backward = _backward_dir
    ctx.extendible = _extendible_dir
    return ctx


def _reach_base(ctx: _Ctx, target: int) -> bytearray:
    """Seed a reach array: 0 unknown, 1 reached, 2 unvisited target,
    3 excluded (blocked / masked / removed).  The sweeps then pay a
    single array read per arc."""
    reach = bytearray(ctx.n2)
    for w in ctx.tgt_list:
        reach[w] = 2
    for v in ctx.excl:
        reach[v] = 3
    for v in ctx.blk_list:
        reach[v] = 3
    reach[target] = 1
    return reach


def _backward_und(ctx: _Ctx, source: int, target: int) -> bytearray:
    """Backward reachability of ``target`` avoiding blocked + source.

    Deterministic in (blocked state, source, target), so callers may
    cache the result while that state is unchanged.  ``reach[v] == 1``
    is the membership test.
    """
    nbrs = ctx.nbrs
    status = ctx.status
    s_star = ctx.s_star
    ops = 0
    reach = _reach_base(ctx, target)
    reach[source] = 3
    stack = [target]
    push = stack.append
    pop = stack.pop
    while stack:
        y = pop()
        if y >= s_star:
            if y == ctx.t_star:
                for w in ctx.tgt_list:
                    ops += 1
                    if reach[w] == 2:
                        reach[w] = 1
                        push(w)
            continue
        if status[y] & _SRC:
            continue
        lst = nbrs[y]
        ops += len(lst)
        for x in lst:
            if reach[x]:  # reached, excluded, or a target (arc dropped)
                continue
            reach[x] = 1
            push(x)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return reach


def _find_path_und(
    ctx: _Ctx,
    frame: "_Frame",
    source: int,
    target: int,
    forbidden: Optional[int],
    after_arc: Optional[int],
) -> Optional[Tuple[List[int], List[int]]]:
    """``F-STP`` on the undirected kernel (see the generic docstring).

    The backward reach set is computed once per enumeration-tree frame
    and stored on it: every sibling advance of the frame runs under the
    same blocked state, so the set is identical (the generic backend
    recomputes it each time).
    """
    pairs = ctx.pairs
    status = ctx.status
    eu = ctx.eu
    s_star = ctx.s_star
    t_star = ctx.t_star
    reach = frame.reach
    if reach is None:
        reach = frame.reach = ctx.backward(ctx, source, target)
    ops = 0

    # Scan the outgoing arcs of `source` in the fixed order.
    started = after_arc is None
    chosen = -1
    chead = -1
    if source == s_star:
        aux_s = ctx.aux_s
        for i, h in enumerate(ctx.src_list):
            aid = aux_s + i
            ops += 1
            if not started:
                if aid == after_arc:
                    started = True
                continue
            if aid == forbidden:
                continue
            if reach[h] == 1:
                chosen = aid
                chead = h
                break
    elif status[source] & _TGT:
        aid = ctx.aux_t + ctx.tindex[source]
        ops += 1
        if started and aid != forbidden and reach[t_star] == 1:
            chosen = aid
            chead = t_star
    else:
        for e, h in pairs[source]:
            aid = (e << 1) | (eu[e] != source)
            ops += 1
            if not started:
                if aid == after_arc:
                    started = True
                continue
            if aid == forbidden or status[h] & _SRC:
                continue
            if reach[h] == 1:
                chosen = aid
                chead = h
                break
    if chosen < 0:
        if ctx.meter is not None and ops:
            ctx.meter.tick(ops)
        return None
    if chead == target:
        if ctx.meter is not None and ops:
            ctx.meter.tick(ops)
        return ([chosen], [source, target])

    # Forward DFS from the chosen head, restricted to `reach`.
    vis = ctx.vis
    vbox = ctx.vbox
    vgen = vbox[0] + 1
    vbox[0] = vgen
    pvert = ctx.pvert
    parc = ctx.parc
    vis[chead] = vgen
    stack = [chead]
    push = stack.append
    pop = stack.pop
    aux_t = ctx.aux_t
    tindex = ctx.tindex
    # Parent pointers are first-write-wins, so the path back from
    # ``target`` is fixed the moment ``target`` is discovered: stop there.
    hit = False
    while stack:
        v = pop()
        if status[v] & _TGT:
            ops += 1
            if vis[t_star] != vgen and reach[t_star] == 1:
                vis[t_star] = vgen
                pvert[t_star] = v
                parc[t_star] = aux_t + tindex[v]
                if t_star == target:
                    break
                push(t_star)
            continue
        lst = pairs[v]
        ops += len(lst)
        for e, w in lst:
            if vis[w] == vgen or reach[w] != 1 or status[w] & _SRC:
                continue
            vis[w] = vgen
            pvert[w] = v
            parc[w] = (e << 1) | (eu[e] != v)
            if w == target:
                hit = True
                break
            push(w)
        if hit:
            break
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    arcs: List[int] = []
    vertices: List[int] = [target]
    v = target
    while v != chead:
        arcs.append(parc[v])
        v = pvert[v]
        vertices.append(v)
    arcs.append(chosen)
    vertices.append(source)
    arcs.reverse()
    vertices.reverse()
    return (arcs, vertices)


def _backward_dir(ctx: _Ctx, source: int, target: int) -> bytearray:
    """Directed backward reachability (cacheable like the undirected)."""
    itails = ctx.itails
    status = ctx.status
    s_star = ctx.s_star
    ops = 0
    reach = _reach_base(ctx, target)
    reach[source] = 3
    stack = [target]
    push = stack.append
    pop = stack.pop
    while stack:
        y = pop()
        if y >= s_star:
            if y == ctx.t_star:
                for w in ctx.tgt_list:
                    ops += 1
                    if reach[w] == 2:
                        reach[w] = 1
                        push(w)
            continue
        if status[y] & _SRC:
            continue
        lst = itails[y]
        ops += len(lst)
        for x in lst:
            if reach[x]:
                continue
            reach[x] = 1
            push(x)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return reach


def _find_path_dir(
    ctx: _Ctx,
    frame: "_Frame",
    source: int,
    target: int,
    forbidden: Optional[int],
    after_arc: Optional[int],
) -> Optional[Tuple[List[int], List[int]]]:
    """``F-STP`` on the directed kernel."""
    opairs = ctx.opairs
    status = ctx.status
    s_star = ctx.s_star
    t_star = ctx.t_star
    reach = frame.reach
    if reach is None:
        reach = frame.reach = ctx.backward(ctx, source, target)
    ops = 0

    started = after_arc is None
    chosen = -1
    chead = -1
    if source == s_star:
        aux_s = ctx.aux_s
        for i, h in enumerate(ctx.src_list):
            aid = aux_s + i
            ops += 1
            if not started:
                if aid == after_arc:
                    started = True
                continue
            if aid == forbidden:
                continue
            if reach[h] == 1:
                chosen = aid
                chead = h
                break
    elif status[source] & _TGT:
        aid = ctx.aux_t + ctx.tindex[source]
        ops += 1
        if started and aid != forbidden and reach[t_star] == 1:
            chosen = aid
            chead = t_star
    else:
        for a, h in opairs[source]:
            ops += 1
            if not started:
                if a == after_arc:
                    started = True
                continue
            if a == forbidden or status[h] & _SRC:
                continue
            if reach[h] == 1:
                chosen = a
                chead = h
                break
    if chosen < 0:
        if ctx.meter is not None and ops:
            ctx.meter.tick(ops)
        return None
    if chead == target:
        if ctx.meter is not None and ops:
            ctx.meter.tick(ops)
        return ([chosen], [source, target])

    vis = ctx.vis
    vbox = ctx.vbox
    vgen = vbox[0] + 1
    vbox[0] = vgen
    pvert = ctx.pvert
    parc = ctx.parc
    vis[chead] = vgen
    stack = [chead]
    push = stack.append
    pop = stack.pop
    aux_t = ctx.aux_t
    tindex = ctx.tindex
    while stack:
        v = pop()
        if v == target:
            break
        if status[v] & _TGT:
            ops += 1
            if vis[t_star] != vgen and reach[t_star] == 1:
                vis[t_star] = vgen
                pvert[t_star] = v
                parc[t_star] = aux_t + tindex[v]
                push(t_star)
            continue
        lst = opairs[v]
        ops += len(lst)
        for a, w in lst:
            if vis[w] == vgen or reach[w] != 1 or status[w] & _SRC:
                continue
            vis[w] = vgen
            pvert[w] = v
            parc[w] = a
            push(w)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    arcs: List[int] = []
    vertices: List[int] = [target]
    v = target
    while v != chead:
        arcs.append(parc[v])
        v = pvert[v]
        vertices.append(v)
    arcs.append(chosen)
    vertices.append(source)
    arcs.reverse()
    vertices.reverse()
    return (arcs, vertices)


def _extendible_und(
    ctx: _Ctx, q_arcs: Sequence[int], q_vertices: Sequence[int], target: int
) -> List[int]:
    """Lemma 11 sweep on the undirected kernel."""
    k = len(q_vertices)
    if k <= 2:
        return []
    pairs = ctx.pairs
    nbrs = ctx.nbrs
    status = ctx.status
    eu = ctx.eu
    esum = ctx.esum
    s_star = ctx.s_star
    t_star = ctx.t_star
    aux_s = ctx.aux_s
    aux_t = ctx.aux_t
    ops = 0

    prefix = q_vertices[: k - 2]
    reach = _reach_base(ctx, target)
    for v in prefix:
        reach[v] = 3  # the Lemma 11 `removed` overlay
    excluded = q_arcs[k - 2]
    ex_e = excluded >> 1 if excluded < aux_s else -1

    # Full backward pass for j = k-1.
    stack = [target]
    push = stack.append
    pop = stack.pop
    while stack:
        y = pop()
        if y >= s_star:
            if y == t_star:
                for j, w in enumerate(ctx.tgt_list):
                    ops += 1
                    if aux_t + j == excluded:
                        continue
                    if reach[w] == 2:
                        reach[w] = 1
                        push(w)
            continue
        if status[y] & _SRC:
            continue
        if ex_e < 0:
            lst = nbrs[y]
            ops += len(lst)
            for x in lst:
                if reach[x]:
                    continue
                reach[x] = 1
                push(x)
        else:
            plst = pairs[y]
            ops += len(plst)
            for e, x in plst:
                if reach[x]:
                    continue
                if e == ex_e and ((e << 1) | (eu[e] != x)) == excluded:
                    continue
                reach[x] = 1
                push(x)

    ext: List[int] = []
    if reach[q_vertices[k - 2]] == 1:
        ext.append(k - 1)

    # Roll j from k-2 down to 2, maintaining `reach` decrementally.
    frontier: List[int] = []
    for j in range(k - 2, 1, -1):
        vj = q_vertices[j - 1]
        reach[vj] = 0  # removed.discard(vj)
        excluded = q_arcs[j - 1]
        ex_e = excluded >> 1  # always a real arc (index >= 1, < k-2)

        if reach[vj] != 1:
            for e, h in pairs[vj]:
                ops += 1
                if e == ex_e and ((e << 1) | (eu[e] != vj)) == excluded:
                    continue
                if reach[h] == 3 or status[h] & _SRC:
                    continue
                if reach[h] == 1:
                    frontier.append(vj)
                    break
        pc = q_arcs[j]
        ops += 1
        if pc >= aux_t:
            tail = ctx.tgt_list[pc - aux_t]
            head = t_star
        elif pc >= aux_s:
            tail = s_star
            head = ctx.src_list[pc - aux_s]
        else:
            e2 = pc >> 1
            tail = eu[e2] if not pc & 1 else esum[e2] - eu[e2]
            head = esum[e2] - tail
        if not reach[tail] & 1 and reach[head] == 1:
            frontier.append(tail)

        while frontier:
            x = frontier.pop()
            if reach[x] == 1:
                continue
            reach[x] = 1
            if status[x] & _SRC:
                continue
            plst = pairs[x]
            ops += len(plst)
            for e, z in plst:
                if reach[z]:
                    continue
                if e == ex_e and ((e << 1) | (eu[e] != z)) == excluded:
                    continue
                frontier.append(z)

        if reach[vj] == 1:
            ext.append(j)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return ext


def _extendible_dir(
    ctx: _Ctx, q_arcs: Sequence[int], q_vertices: Sequence[int], target: int
) -> List[int]:
    """Lemma 11 sweep on the directed kernel."""
    k = len(q_vertices)
    if k <= 2:
        return []
    opairs = ctx.opairs
    ipairs = ctx.ipairs
    itails = ctx.itails
    status = ctx.status
    at = ctx.at
    ah = ctx.ah
    s_star = ctx.s_star
    t_star = ctx.t_star
    aux_s = ctx.aux_s
    aux_t = ctx.aux_t
    ops = 0

    prefix = q_vertices[: k - 2]
    reach = _reach_base(ctx, target)
    for v in prefix:
        reach[v] = 3
    excluded = q_arcs[k - 2]
    excluded_real = excluded < aux_s

    stack = [target]
    push = stack.append
    pop = stack.pop
    while stack:
        y = pop()
        if y >= s_star:
            if y == t_star:
                for j, w in enumerate(ctx.tgt_list):
                    ops += 1
                    if aux_t + j == excluded:
                        continue
                    if reach[w] == 2:
                        reach[w] = 1
                        push(w)
            continue
        if status[y] & _SRC:
            continue
        if excluded_real:
            plst = ipairs[y]
            ops += len(plst)
            for a, x in plst:
                if reach[x] or a == excluded:
                    continue
                reach[x] = 1
                push(x)
        else:
            lst = itails[y]
            ops += len(lst)
            for x in lst:
                if reach[x]:
                    continue
                reach[x] = 1
                push(x)

    ext: List[int] = []
    if reach[q_vertices[k - 2]] == 1:
        ext.append(k - 1)

    frontier: List[int] = []
    for j in range(k - 2, 1, -1):
        vj = q_vertices[j - 1]
        reach[vj] = 0
        excluded = q_arcs[j - 1]

        if reach[vj] != 1:
            for a, h in opairs[vj]:
                ops += 1
                if a == excluded:
                    continue
                if reach[h] == 3 or status[h] & _SRC:
                    continue
                if reach[h] == 1:
                    frontier.append(vj)
                    break
        pc = q_arcs[j]
        ops += 1
        if pc >= aux_t:
            tail = ctx.tgt_list[pc - aux_t]
            head = t_star
        elif pc >= aux_s:
            tail = s_star
            head = ctx.src_list[pc - aux_s]
        else:
            tail = at[pc]
            head = ah[pc]
        if not reach[tail] & 1 and reach[head] == 1:
            frontier.append(tail)

        while frontier:
            x = frontier.pop()
            if reach[x] == 1:
                continue
            reach[x] = 1
            if status[x] & _SRC:
                continue
            plst = ipairs[x]
            ops += len(plst)
            for a, z in plst:
                if reach[z] or a == excluded:
                    continue
                frontier.append(z)

        if reach[vj] == 1:
            ext.append(j)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return ext


def _backward_und_plain(ctx: _Ctx, source: int, target: int) -> bytearray:
    """Plain-mode backward reachability (no S/T roles, no sentinels)."""
    nbrs = ctx.nbrs
    ops = 0
    reach = bytearray(ctx.n2)
    for v in ctx.excl:
        reach[v] = 3
    for v in ctx.blk_list:
        reach[v] = 3
    reach[source] = 3
    reach[target] = 1
    stack = [target]
    push = stack.append
    pop = stack.pop
    if ctx.meter is None:
        while stack:
            y = pop()
            for x in nbrs[y]:
                if reach[x]:
                    continue
                reach[x] = 1
                push(x)
        return reach
    while stack:
        y = pop()
        lst = nbrs[y]
        ops += len(lst)
        for x in lst:
            if reach[x]:
                continue
            reach[x] = 1
            push(x)
    if ops:
        ctx.meter.tick(ops)
    return reach


def _find_path_und_plain(
    ctx: _Ctx,
    frame: "_Frame",
    source: int,
    target: int,
    forbidden: Optional[int],
    after_arc: Optional[int],
) -> Optional[Tuple[List[int], List[int]]]:
    """``F-STP`` specialized for plain undirected s-t enumeration.

    Identical decisions to :func:`_find_path_und` with every role/
    sentinel test compiled out (there are no S/T roles in plain mode).
    """
    pairs = ctx.pairs
    eu = ctx.eu
    reach = frame.reach
    if reach is None:
        reach = frame.reach = ctx.backward(ctx, source, target)
    ops = 0

    started = after_arc is None
    chosen = -1
    chead = -1
    for e, h in pairs[source]:
        aid = (e << 1) | (eu[e] != source)
        ops += 1
        if not started:
            if aid == after_arc:
                started = True
            continue
        if aid == forbidden:
            continue
        if reach[h] == 1:
            chosen = aid
            chead = h
            break
    if chosen < 0:
        if ctx.meter is not None and ops:
            ctx.meter.tick(ops)
        return None
    if chead == target:
        if ctx.meter is not None and ops:
            ctx.meter.tick(ops)
        return ([chosen], [source, target])

    vis = ctx.vis
    vbox = ctx.vbox
    vgen = vbox[0] + 1
    vbox[0] = vgen
    pvert = ctx.pvert
    parc = ctx.parc
    vis[chead] = vgen
    stack = [chead]
    push = stack.append
    pop = stack.pop
    hit = False  # early exit on discovering target, as in _find_path_und
    if ctx.meter is None:
        while stack:
            v = pop()
            for e, w in pairs[v]:
                if vis[w] == vgen or reach[w] != 1:
                    continue
                vis[w] = vgen
                pvert[w] = v
                parc[w] = (e << 1) | (eu[e] != v)
                if w == target:
                    hit = True
                    break
                push(w)
            if hit:
                break
    else:
        while stack:
            v = pop()
            lst = pairs[v]
            ops += len(lst)
            for e, w in lst:
                if vis[w] == vgen or reach[w] != 1:
                    continue
                vis[w] = vgen
                pvert[w] = v
                parc[w] = (e << 1) | (eu[e] != v)
                if w == target:
                    hit = True
                    break
                push(w)
            if hit:
                break
        if ops:
            ctx.meter.tick(ops)
    arcs: List[int] = []
    vertices: List[int] = [target]
    v = target
    while v != chead:
        arcs.append(parc[v])
        v = pvert[v]
        vertices.append(v)
    arcs.append(chosen)
    vertices.append(source)
    arcs.reverse()
    vertices.reverse()
    return (arcs, vertices)


def _extendible_und_plain(
    ctx: _Ctx, q_arcs: Sequence[int], q_vertices: Sequence[int], target: int
) -> List[int]:
    """Lemma 11 sweep specialized for plain undirected enumeration."""
    k = len(q_vertices)
    if k <= 2:
        return []
    pairs = ctx.pairs
    eu = ctx.eu
    esum = ctx.esum
    ops = 0

    prefix = q_vertices[: k - 2]
    reach = bytearray(ctx.n2)
    for v in ctx.excl:
        reach[v] = 3
    for v in ctx.blk_list:
        reach[v] = 3
    for v in prefix:
        reach[v] = 3
    reach[target] = 1
    excluded = q_arcs[k - 2]
    ex_e = excluded >> 1

    stack = [target]
    push = stack.append
    pop = stack.pop
    metered = ctx.meter is not None
    if metered:
        while stack:
            y = pop()
            plst = pairs[y]
            ops += len(plst)
            for e, x in plst:
                if reach[x]:
                    continue
                if e == ex_e and ((e << 1) | (eu[e] != x)) == excluded:
                    continue
                reach[x] = 1
                push(x)
    else:
        while stack:
            y = pop()
            for e, x in pairs[y]:
                if reach[x]:
                    continue
                if e == ex_e and ((e << 1) | (eu[e] != x)) == excluded:
                    continue
                reach[x] = 1
                push(x)

    ext: List[int] = []
    if reach[q_vertices[k - 2]] == 1:
        ext.append(k - 1)

    frontier: List[int] = []
    for j in range(k - 2, 1, -1):
        vj = q_vertices[j - 1]
        reach[vj] = 0
        excluded = q_arcs[j - 1]
        ex_e = excluded >> 1

        if reach[vj] != 1:
            for e, h in pairs[vj]:
                ops += 1
                if reach[h] == 1 and not (
                    e == ex_e and ((e << 1) | (eu[e] != vj)) == excluded
                ):
                    frontier.append(vj)
                    break
        pc = q_arcs[j]
        ops += 1
        e2 = pc >> 1
        tail = eu[e2] if not pc & 1 else esum[e2] - eu[e2]
        head = esum[e2] - tail
        if not reach[tail] & 1 and reach[head] == 1:
            frontier.append(tail)

        while frontier:
            x = frontier.pop()
            if reach[x] == 1:
                continue
            reach[x] = 1
            plst = pairs[x]
            ops += len(plst)
            for e, z in plst:
                if reach[z]:
                    continue
                if e == ex_e and ((e << 1) | (eu[e] != z)) == excluded:
                    continue
                frontier.append(z)

        if reach[vj] == 1:
            ext.append(j)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return ext


# ----------------------------------------------------------------------
# bitset sweeps (undirected, chosen per context by BITSET_MIN_DEGREE)
# ----------------------------------------------------------------------
class _BitView:
    """Per-context bitset state: adjacency masks plus static seeds.

    ``adj`` is a private copy of the kernel's :meth:`FastGraph.bit_rows`
    masks (the Lemma 11 rolls patch one row at a time and restore it).
    ``tmpl`` / ``tmpl_plain`` hold the static reach seeding (targets and
    excluded vertices) as one little-endian int over the reach bytes;
    ``banned`` / ``banned_plain`` are the same vertices as a bit mask.
    Dynamic seeds (blocked list, prefix, source, target) are added per
    sweep.
    """

    __slots__ = (
        "adj",
        "deg",
        "expand_mask",
        "src_bits",
        "banned",
        "banned_plain",
        "tgt2_bits",
        "tmpl",
        "tmpl_plain",
    )


def _bit_view(fg: FastGraph, ctx: _Ctx) -> _BitView:
    adj0, deg = fg.bit_rows()
    bv = _BitView()
    bv.adj = list(adj0)
    bv.deg = deg
    n = len(adj0)
    src_bits = 0
    for v in ctx.src_list:
        src_bits |= 1 << v
    bv.expand_mask = ((1 << n) - 1) & ~src_bits
    bv.src_bits = src_bits
    tmpl = bytearray(ctx.n2)
    banned = 0
    for w in ctx.tgt_list:
        tmpl[w] = 2
        banned |= 1 << w
    tmpl_plain = bytearray(ctx.n2)
    banned_plain = 0
    for v in ctx.excl:
        tmpl[v] = tmpl_plain[v] = 3
        banned_plain |= 1 << v
    tgt2 = 0
    for w in ctx.tgt_list:
        if tmpl[w] == 2:
            tgt2 |= 1 << w
    bv.tmpl = int.from_bytes(tmpl, "little")
    bv.tmpl_plain = int.from_bytes(tmpl_plain, "little")
    bv.banned = banned | banned_plain
    bv.banned_plain = banned_plain
    bv.tgt2_bits = tgt2
    return bv


def _bitsweep(
    bv: _BitView, frontier: int, visited: int, metered: bool
) -> Tuple[int, int]:
    """Flood backward from ``frontier``, one whole frontier per step.

    ``visited`` holds every vertex already assigned a nonzero reach
    value (the seeds), so ``& ~visited`` is the single admission test,
    exactly as ``reach[x] == 0`` is in the scalar sweeps; S-vertices
    absorb without expanding.  Returns ``(ones, ops)``: the newly
    reached vertex set and the meter op count.
    """
    adj = bv.adj
    deg = bv.deg
    expand = bv.expand_mask
    ones = 0
    ops = 0
    while True:
        m = frontier & expand
        if not m:
            break
        acc = 0
        if metered:
            while m:
                b = m & -m
                v = b.bit_length() - 1
                ops += deg[v]
                acc |= adj[v]
                m ^= b
        else:
            while m:
                b = m & -m
                acc |= adj[b.bit_length() - 1]
                m ^= b
        frontier = acc & ~visited
        if not frontier:
            break
        visited |= frontier
        ones |= frontier
    return ones, ops


def _row_without_edge(ctx: _Ctx, v: int, e: int) -> int:
    """Adjacency mask of ``v`` without the incidence entry of edge ``e``
    (a parallel edge keeps its own entry, so multiedges stay usable)."""
    acc = 0
    for e2, w in ctx.pairs[v]:
        if e2 != e:
            acc |= 1 << w
    return acc


def _sweep_without_arc(
    ctx: _Ctx, excluded: int, frontier: int, visited: int, metered: bool
) -> Tuple[int, int]:
    """:func:`_bitsweep` that never crosses the edge of arc ``excluded``
    toward its tail — the scalar sweeps' ``== excluded`` skip.  That
    single entry lives in the row of ``excluded``'s head, which is
    patched for the sweep and restored."""
    bv = ctx.bits
    e = excluded >> 1
    head = ctx.eu[e] if excluded & 1 else ctx.esum[e] - ctx.eu[e]
    adj = bv.adj
    saved = adj[head]
    adj[head] = _row_without_edge(ctx, head, e)
    try:
        return _bitsweep(bv, frontier, visited, metered)
    finally:
        adj[head] = saved


#: Byte ``b`` -> eight 0/1 bytes, byte ``i`` holding bit ``i`` of ``b``.
_BYTE_BITS = [bytes((b >> i) & 1 for i in range(8)) for b in range(256)]


def _final_reach(tmpl: int, ones: int, n: int, n2: int) -> bytearray:
    """Template plus swept vertex set, as the scalar consumers' reach
    bytearray.

    ``ones`` only covers vertices whose template byte is 0 (every
    nonzero seed is in the sweep's visited mask), so OR-ing the 0/1
    bytes into the template reproduces the scalar values; the caller
    then writes the dynamic seeds in the scalar seeding order.
    """
    if ones:
        spread = b"".join(
            map(_BYTE_BITS.__getitem__, ones.to_bytes((n + 7) >> 3, "little"))
        )
        tmpl |= int.from_bytes(spread, "little")
    return bytearray(tmpl.to_bytes(n2, "little"))


def _backward_und_bits(ctx: _Ctx, source: int, target: int) -> bytearray:
    """Bitset :func:`_backward_und`: the same reach bytes."""
    bv = ctx.bits
    n = len(bv.adj)
    blk = ctx.blk_list
    blk_bits = 0
    for v in blk:
        if v < n:
            blk_bits |= 1 << v
    visited = bv.banned | blk_bits
    ops = 0
    frontier = 0
    seeds = 0
    if target >= ctx.s_star:
        if target == ctx.t_star:
            ops += len(ctx.tgt_list)
            seeds = bv.tgt2_bits & ~blk_bits
            if source < n:
                seeds &= ~(1 << source)
            frontier = seeds
    else:
        frontier = 1 << target
        visited |= frontier
    if source < n:
        visited |= 1 << source
    ones, sweep_ops = _bitsweep(bv, frontier, visited, ctx.meter is not None)
    ops += sweep_ops
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    out = _final_reach(bv.tmpl, ones, n, ctx.n2)
    for v in blk:
        out[v] = 3
    out[target] = 1
    out[source] = 3
    s = seeds
    while s:
        b = s & -s
        out[b.bit_length() - 1] = 1
        s ^= b
    return out


def _backward_und_plain_bits(ctx: _Ctx, source: int, target: int) -> bytearray:
    """Bitset :func:`_backward_und_plain`: the same reach bytes."""
    bv = ctx.bits
    n = len(bv.adj)
    blk = ctx.blk_list
    blk_bits = 0
    for v in blk:
        blk_bits |= 1 << v
    frontier = 1 << target
    visited = bv.banned_plain | blk_bits | (1 << source) | frontier
    ones, ops = _bitsweep(bv, frontier, visited, ctx.meter is not None)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    out = _final_reach(bv.tmpl_plain, ones, n, ctx.n2)
    for v in blk:
        out[v] = 3
    out[source] = 3
    out[target] = 1
    return out


def _extendible_und_bits(
    ctx: _Ctx, q_arcs: Sequence[int], q_vertices: Sequence[int], target: int
) -> List[int]:
    """Bitset :func:`_extendible_und`: the same extendible indices.

    The full ``j = k-1`` pass and the decremental roll are both
    membership-only, so the reach values stay in the bit domain:
    ``ones`` / ``twos`` / ``threes`` masks track the scalar byte values
    1/2/3, the super source's cell lives in ``s_val`` and the super
    target's in ``t_val``, and each roll step's re-flood is one sweep.
    """
    k = len(q_vertices)
    if k <= 2:
        return []
    eu = ctx.eu
    esum = ctx.esum
    s_star = ctx.s_star
    t_star = ctx.t_star
    aux_s = ctx.aux_s
    aux_t = ctx.aux_t
    bv = ctx.bits
    adj = bv.adj
    deg = bv.deg
    n = len(adj)
    metered = ctx.meter is not None
    src_bits = bv.src_bits
    ops = 0

    blk_bits = 0
    for v in ctx.blk_list:
        if v < n:
            blk_bits |= 1 << v
    pfx_bits = 0
    for v in q_vertices[: k - 2]:
        if v < n:
            pfx_bits |= 1 << v
    threes = (bv.banned & ~bv.tgt2_bits) | blk_bits | pfx_bits
    base2 = bv.tgt2_bits & ~blk_bits & ~pfx_bits
    ones = 0
    frontier = 0
    t_val = 0
    s_val = 0
    excluded = q_arcs[k - 2]
    if target >= s_star:
        if target == t_star:
            t_val = 1
            ops += len(ctx.tgt_list)
            seeds = base2
            if excluded >= aux_t:
                w_skip = ctx.tgt_list[excluded - aux_t]
                if w_skip < n:
                    seeds &= ~(1 << w_skip)
            frontier = seeds
            ones = seeds
            base2 &= ~seeds
    else:
        tb = 1 << target
        if not tb & pfx_bits:
            threes &= ~tb
            base2 &= ~tb
            ones |= tb
        frontier = tb
    twos = base2

    if excluded < aux_s:
        swept, sweep_ops = _sweep_without_arc(
            ctx, excluded, frontier, ones | twos | threes, metered
        )
    else:
        swept, sweep_ops = _bitsweep(bv, frontier, ones | twos | threes, metered)
    ops += sweep_ops
    ones |= swept

    ext: List[int] = []
    if (ones >> q_vertices[k - 2]) & 1:
        ext.append(k - 1)

    # Decremental roll: one re-flood per j, all masks.
    for j in range(k - 2, 1, -1):
        vj = q_vertices[j - 1]
        vb = 1 << vj
        ones &= ~vb  # removed.discard(vj): reach[vj] = 0
        threes &= ~vb
        excluded = q_arcs[j - 1]
        ex_e = excluded >> 1  # always a real arc (index >= 1, < k-2)
        xt = eu[ex_e] if not excluded & 1 else esum[ex_e] - eu[ex_e]
        row_vj = _row_without_edge(ctx, vj, ex_e) if xt == vj else adj[vj]
        frontier = 0
        if metered:
            ops += deg[vj]
        if row_vj & ones & ~src_bits:
            frontier = vb
            ones |= vb
        pc = q_arcs[j]
        ops += 1
        if pc >= aux_t:
            tb2 = 1 << ctx.tgt_list[pc - aux_t]
            if t_val and not (ones | threes) & tb2:
                frontier |= tb2
                ones |= tb2
                twos &= ~tb2
        elif pc >= aux_s:
            if not s_val and (ones >> ctx.src_list[pc - aux_s]) & 1:
                s_val = 1  # s* absorbs: reach[s*] = 1, no expansion
        else:
            e2 = pc >> 1
            tail = eu[e2] if not pc & 1 else esum[e2] - eu[e2]
            tb2 = 1 << tail
            if not (ones | threes) & tb2 and (ones >> (esum[e2] - tail)) & 1:
                frontier |= tb2
                ones |= tb2
                twos &= ~tb2
        if frontier:
            swept, sweep_ops = _sweep_without_arc(
                ctx, excluded, frontier, ones | twos | threes, metered
            )
            ones |= swept
            ops += sweep_ops
        if (ones >> vj) & 1:
            ext.append(j)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return ext


def _extendible_und_plain_bits(
    ctx: _Ctx, q_arcs: Sequence[int], q_vertices: Sequence[int], target: int
) -> List[int]:
    """Bitset :func:`_extendible_und_plain`: the same extendible indices
    (plain mode has no roles, sentinels or 2-valued cells)."""
    k = len(q_vertices)
    if k <= 2:
        return []
    eu = ctx.eu
    esum = ctx.esum
    bv = ctx.bits
    adj = bv.adj
    deg = bv.deg
    metered = ctx.meter is not None
    ops = 0

    blk_bits = 0
    for v in ctx.blk_list:
        blk_bits |= 1 << v
    pfx_bits = 0
    for v in q_vertices[: k - 2]:
        pfx_bits |= 1 << v

    tb = 1 << target
    threes = (bv.banned_plain | blk_bits | pfx_bits) & ~tb
    ones = tb
    swept, sweep_ops = _sweep_without_arc(
        ctx, q_arcs[k - 2], tb, ones | threes, metered
    )
    ops += sweep_ops
    ones |= swept

    ext: List[int] = []
    if (ones >> q_vertices[k - 2]) & 1:
        ext.append(k - 1)

    for j in range(k - 2, 1, -1):
        vj = q_vertices[j - 1]
        vb = 1 << vj
        ones &= ~vb
        threes &= ~vb
        excluded = q_arcs[j - 1]
        ex_e = excluded >> 1
        xt = eu[ex_e] if not excluded & 1 else esum[ex_e] - eu[ex_e]
        row_vj = _row_without_edge(ctx, vj, ex_e) if xt == vj else adj[vj]
        frontier = 0
        if metered:
            ops += deg[vj]
        if row_vj & ones:
            frontier = vb
            ones |= vb
        pc = q_arcs[j]
        ops += 1
        e2 = pc >> 1
        tail = eu[e2] if not pc & 1 else esum[e2] - eu[e2]
        tb2 = 1 << tail
        if not (ones | threes) & tb2 and (ones >> (esum[e2] - tail)) & 1:
            frontier |= tb2
            ones |= tb2
        if frontier:
            swept, sweep_ops = _sweep_without_arc(
                ctx, excluded, frontier, ones | threes, metered
            )
            ones |= swept
            ops += sweep_ops
        if (ones >> vj) & 1:
            ext.append(j)
    if ctx.meter is not None and ops:
        ctx.meter.tick(ops)
    return ext


class _Frame:
    """One ``E-STP`` activation (mirrors the generic ``_Frame``)."""

    __slots__ = (
        "source",
        "forbidden",
        "depth",
        "node_id",
        "q_arcs",
        "q_vertices",
        "ext",
        "pos",
        "added_vertices",
        "added_arcs",
        "reach",
    )

    def __init__(self, source, forbidden, depth, node_id, added_vertices, added_arcs):
        self.source = source
        self.forbidden = forbidden
        self.depth = depth
        self.node_id = node_id
        self.q_arcs: List[int] = []
        self.q_vertices: List[int] = []
        self.ext: List[int] = []
        self.pos = 0
        self.added_vertices = added_vertices
        self.added_arcs = added_arcs
        # Backward reach of the target under this frame's blocked state.
        # (Annotated Optional: computed lazily by the first F-STP call.)
        # The blocked state whenever this frame is top-of-stack equals
        # its creation state (children restore on pop), so one sweep per
        # frame serves every sibling advance.  A frame already holds
        # O(path length) state (q_arcs / q_vertices); this adds O(n).
        self.reach: Optional[bytearray] = None

    def as_state(self) -> tuple:
        """Plain-data form for snapshots.  ``reach`` is a derived cache
        (deterministic in the frame's blocked state) and is dropped; the
        first F-STP call after restore recomputes it byte-identically."""
        return (
            self.source,
            self.forbidden,
            self.depth,
            self.node_id,
            list(self.q_arcs),
            list(self.q_vertices),
            list(self.ext),
            self.pos,
            tuple(self.added_vertices),
            self.added_arcs,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "_Frame":
        frame = cls(state[0], state[1], state[2], state[3], state[8], state[9])
        frame.q_arcs = list(state[4])
        frame.q_vertices = list(state[5])
        frame.ext = list(state[6])
        frame.pos = state[7]
        return frame


class FastPathSearch:
    """Algorithm 1 on the kernel as an explicit-state machine.

    Kernel counterpart of :class:`repro.paths.read_tarjan.PathSearch`:
    event-for-event parallel to the generic machine run on the
    equivalent auxiliary digraph, and suspendable the same way —
    :meth:`state` serializes the frame stack, shared prefix, blocked
    overlay and pending output queue as plain data, and :meth:`restore`
    rebuilds the context (including the per-frame backward-reach caches,
    which are recomputed lazily and deterministically) from the kernel.

    ``emit`` selects the output shape of :meth:`advance`: 0 yields the
    full raw event stream (sentinel vertices, internal arc ids); the
    nonzero modes yield bare :class:`Path` records ready for the
    consumer, skipping discover/examine events entirely — 1 strips the
    super endpoints and maps arc ids to edge ids (undirected S-T), 2
    maps arc ids to edge ids (plain undirected s-t), 3 strips the super
    endpoints (directed S-T).
    """

    __slots__ = (
        "ctx",
        "source",
        "target",
        "emit",
        "_find_path",
        "_extendible",
        "prefix_arcs",
        "prefix_vertices",
        "node_counter",
        "stack",
        "pending",
        "phase",
    )

    def __init__(self, ctx: _Ctx, source: int, target: int, emit: int = 0) -> None:
        self.ctx = ctx
        self.source = source
        self.target = target
        self.emit = emit
        if ctx.directed:
            self._find_path = _find_path_dir
        elif ctx.src_list or ctx.tgt_list:
            self._find_path = _find_path_und
        else:
            self._find_path = _find_path_und_plain
        self._extendible = ctx.extendible
        self.prefix_arcs: List[int] = []
        self.prefix_vertices: List[int] = []
        self.node_counter = 0
        self.stack: List[_Frame] = []
        self.pending: deque = deque()
        self.phase = 0  # 0 = not started, 1 = running, 2 = exhausted

    # ------------------------------------------------------------------
    def advance(self):
        """The next event (``emit == 0``) or :class:`Path`, else ``None``."""
        while True:
            if self.pending:
                return self.pending.popleft()
            if self.phase == 2:
                return None
            if self.phase == 0:
                self._start()
            else:
                self._step()

    def next_path(self) -> Optional[Path]:
        """:meth:`advance` under a path-shaped emit mode (1/2/3)."""
        return self.advance()

    def _emit_solution(self, frame: _Frame) -> None:
        fv = self.prefix_vertices[:-1] + frame.q_vertices
        fa = self.prefix_arcs + frame.q_arcs
        emit = self.emit
        if emit == 0:
            self.pending.append((SOLUTION, Path(tuple(fv), tuple(fa))))
        elif emit == 1:
            self.pending.append(
                Path(tuple(fv[1:-1]), tuple([a >> 1 for a in fa[1:-1]]))
            )
        elif emit == 2:
            self.pending.append(Path(tuple(fv), tuple([a >> 1 for a in fa])))
        else:
            self.pending.append(Path(tuple(fv[1:-1]), tuple(fa[1:-1])))

    def _start(self) -> None:
        self.phase = 1
        source, target = self.source, self.target
        if source == target:
            if self.emit:
                self.pending.append(Path((source,), ()))
            else:
                self.pending.append((DISCOVER, 0, 0))
                self.pending.append((SOLUTION, Path((source,), ())))
                self.pending.append((EXAMINE, 0, 0))
            self.phase = 2
            return
        self.prefix_vertices = [source]
        root = _Frame(source, None, 0, self.node_counter, (), 0)
        found = self._find_path(self.ctx, root, source, target, None, None)
        if found is None:
            self.phase = 2
            return
        if self.emit == 0:
            self.pending.append((DISCOVER, root.node_id, 0))
        root.q_arcs, root.q_vertices = found
        root.ext = self._extendible(self.ctx, root.q_arcs, root.q_vertices, target)
        root.pos = 0
        if root.depth % 2 == 0:
            self._emit_solution(root)
        self.stack.append(root)

    def _step(self) -> None:
        """One enumeration-tree traversal step (the old loop body)."""
        if not self.stack:
            self.phase = 2
            return
        ctx, target = self.ctx, self.target
        frame = self.stack[-1]
        if frame.pos < len(frame.ext):
            i = frame.ext[frame.pos]
            frame.pos += 1
            added = tuple(frame.q_vertices[: i - 1])
            if added:
                ctx.blk_list.extend(added)
            self.prefix_arcs.extend(frame.q_arcs[: i - 1])
            self.prefix_vertices.extend(frame.q_vertices[1:i])
            self.node_counter += 1
            child = _Frame(
                frame.q_vertices[i - 1],
                frame.q_arcs[i - 1],
                frame.depth + 1,
                self.node_counter,
                added,
                i - 1,
            )
            found = self._find_path(
                ctx, child, child.source, target, child.forbidden, None
            )
            if found is None:  # pragma: no cover - excluded by extendibility
                if added:
                    del ctx.blk_list[len(ctx.blk_list) - len(added) :]
                del self.prefix_arcs[len(self.prefix_arcs) - child.added_arcs :]
                del self.prefix_vertices[
                    len(self.prefix_vertices) - child.added_arcs :
                ]
                return
            if self.emit == 0:
                self.pending.append((DISCOVER, child.node_id, child.depth))
            child.q_arcs, child.q_vertices = found
            child.ext = self._extendible(ctx, child.q_arcs, child.q_vertices, target)
            child.pos = 0
            self.stack.append(child)
            if child.depth % 2 == 0:
                self._emit_solution(child)
            return

        if frame.depth % 2 == 1:
            self._emit_solution(frame)
        found = self._find_path(
            ctx, frame, frame.source, target, frame.forbidden, frame.q_arcs[0]
        )
        if found is not None:
            frame.q_arcs, frame.q_vertices = found
            frame.ext = self._extendible(ctx, frame.q_arcs, frame.q_vertices, target)
            frame.pos = 0
            if frame.depth % 2 == 0:
                self._emit_solution(frame)
            return

        if self.emit == 0:
            self.pending.append((EXAMINE, frame.node_id, frame.depth))
        self.stack.pop()
        if frame.added_vertices:
            n_added = len(frame.added_vertices)
            del ctx.blk_list[len(ctx.blk_list) - n_added :]
        if frame.added_arcs:
            del self.prefix_arcs[len(self.prefix_arcs) - frame.added_arcs :]
            del self.prefix_vertices[len(self.prefix_vertices) - frame.added_arcs :]

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Plain-data search state.

        The context's ordered source/target/excluded lists are captured
        verbatim (they fix the auxiliary arc id space and every scan
        order); the kernel arrays and per-frame reach caches are not —
        they are rebuilt from the graph on :meth:`restore`.
        """
        ctx = self.ctx
        return {
            "directed": ctx.directed,
            "src": list(ctx.src_list),
            "tgt": list(ctx.tgt_list),
            "excl": list(ctx.excl),
            "blk": list(ctx.blk_list),
            "source": self.source,
            "target": self.target,
            "emit": self.emit,
            "prefix_arcs": list(self.prefix_arcs),
            "prefix_vertices": list(self.prefix_vertices),
            "node_counter": self.node_counter,
            "stack": [frame.as_state() for frame in self.stack],
            "pending": list(self.pending),
            "phase": self.phase,
        }

    @classmethod
    def restore(cls, graph, state: Dict[str, Any], meter=None) -> "FastPathSearch":
        """Rebuild a machine over the compiled kernel ``graph``.

        ``graph`` is the :class:`FastGraph` / :class:`FastDiGraph` the
        state was captured on (or a deterministic recompilation of the
        same instance — the enumerator-level snapshots guarantee that
        via the instance fingerprint).
        """
        if state["directed"]:
            ctx = _dir_ctx(graph, list(state["src"]), list(state["tgt"]), meter)
        else:
            ctx = _und_ctx(
                graph, list(state["src"]), list(state["tgt"]), state["excl"], meter
            )
        ctx.blk_list = list(state["blk"])
        machine = cls(ctx, state["source"], state["target"], state["emit"])
        machine.prefix_arcs = list(state["prefix_arcs"])
        machine.prefix_vertices = list(state["prefix_vertices"])
        machine.node_counter = state["node_counter"]
        machine.stack = [_Frame.from_state(f) for f in state["stack"]]
        machine.pending = deque(state["pending"])
        machine.phase = state["phase"]
        return machine


def _events(ctx: _Ctx, source: int, target: int, emit: int = 0) -> Iterator:
    """Drain a :class:`FastPathSearch` (generator shape of the machine)."""
    machine = FastPathSearch(ctx, source, target, emit)
    while True:
        item = machine.advance()
        if item is None:
            return
        yield item


# ----------------------------------------------------------------------
# public wrappers (parallel to the generic module's API)
# ----------------------------------------------------------------------
def _split_sets(
    fg, sources: Iterable[int], targets: Iterable[int]
) -> Tuple[List[int], List[int]]:
    # Ordered dedup mirroring the generic builders: the auxiliary arc
    # order — and hence the stream — follows the caller's sequence order.
    source_list = list(dict.fromkeys(sources))
    target_list = list(dict.fromkeys(targets))
    if set(source_list) & set(target_list):
        raise ValueError("S and T must be disjoint")
    # A source/target missing from the graph is a dead end either way;
    # dropping it keeps the scan decisions identical to the generic
    # backend's (which materializes it as an isolated aux vertex).
    src_list = [v for v in source_list if v in fg]
    tgt_list = [v for v in target_list if v in fg]
    return src_list, tgt_list


def fast_set_path_search(
    fg: FastGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    meter=None,
    excluded: Iterable[int] = (),
) -> FastPathSearch:
    """Suspendable machine form of :func:`fast_enumerate_set_paths`."""
    src_list, tgt_list = _split_sets(fg, sources, targets)
    ctx = _und_ctx(fg, src_list, tgt_list, excluded, meter)
    return FastPathSearch(ctx, ctx.s_star, ctx.t_star, emit=1)


def fast_set_path_search_directed(
    fd: FastDiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    meter=None,
) -> FastPathSearch:
    """Suspendable machine form of :func:`fast_enumerate_set_paths_directed`."""
    src_list, tgt_list = _split_sets(fd, sources, targets)
    ctx = _dir_ctx(fd, src_list, tgt_list, meter)
    return FastPathSearch(ctx, ctx.s_star, ctx.t_star, emit=3)


def fast_st_path_search(
    fg: FastGraph,
    source: int,
    target: int,
    meter=None,
    excluded: Iterable[int] = (),
) -> FastPathSearch:
    """Suspendable machine form of :func:`fast_enumerate_st_paths_undirected`."""
    ctx = _und_ctx(fg, [], [], excluded, meter)
    machine = FastPathSearch(ctx, source, target, emit=2)
    if source not in fg or target not in fg:
        machine.phase = 2  # mirror the generator wrappers: empty stream
    return machine


def fast_set_path_events(
    fg: FastGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    meter=None,
    excluded: Iterable[int] = (),
) -> Iterator[Event]:
    """Event stream of undirected ``S``-``T`` path enumeration.

    Kernel counterpart of :func:`repro.paths.read_tarjan.set_path_events`;
    ``excluded`` vertices are masked out (stream-equivalent to
    enumerating in ``G - excluded``).
    """
    src_list, tgt_list = _split_sets(fg, sources, targets)
    ctx = _und_ctx(fg, src_list, tgt_list, excluded, meter)
    for event in _events(ctx, ctx.s_star, ctx.t_star):
        if event[0] == SOLUTION:
            path = event[1]
            yield (
                SOLUTION,
                Path(path.vertices[1:-1], tuple(a >> 1 for a in path.arcs[1:-1])),
            )
        else:
            yield event


def fast_enumerate_set_paths(
    fg: FastGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    meter=None,
    excluded: Iterable[int] = (),
) -> Iterator[Path]:
    """All ``S``-``T`` paths (kernel backend), O(n+m) delay."""
    src_list, tgt_list = _split_sets(fg, sources, targets)
    ctx = _und_ctx(fg, src_list, tgt_list, excluded, meter)
    return _events(ctx, ctx.s_star, ctx.t_star, emit=1)


def fast_st_path_events_undirected(
    fg: FastGraph,
    source: int,
    target: int,
    meter=None,
    excluded: Iterable[int] = (),
) -> Iterator[Event]:
    """Event stream of plain undirected ``s``-``t`` path enumeration.

    Kernel counterpart of running the generic enumerator on
    ``graph.to_directed()``; solutions carry *edge* ids.
    """
    if source not in fg or target not in fg:
        return
    ctx = _und_ctx(fg, [], [], excluded, meter)
    for event in _events(ctx, source, target):
        if event[0] == SOLUTION:
            path = event[1]
            yield (SOLUTION, Path(path.vertices, tuple(a >> 1 for a in path.arcs)))
        else:
            yield event


def fast_enumerate_st_paths_undirected(
    fg: FastGraph,
    source: int,
    target: int,
    meter=None,
    excluded: Iterable[int] = (),
) -> Iterator[Path]:
    """All simple ``source``-``target`` paths (kernel backend)."""
    if source not in fg or target not in fg:
        return iter(())
    ctx = _und_ctx(fg, [], [], excluded, meter)
    return _events(ctx, source, target, emit=2)


def fast_set_path_events_directed(
    fd: FastDiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    meter=None,
) -> Iterator[Event]:
    """Event stream of directed ``S``-``T`` path enumeration (kernel)."""
    src_list, tgt_list = _split_sets(fd, sources, targets)
    ctx = _dir_ctx(fd, src_list, tgt_list, meter)
    for event in _events(ctx, ctx.s_star, ctx.t_star):
        if event[0] == SOLUTION:
            path = event[1]
            yield (SOLUTION, Path(path.vertices[1:-1], path.arcs[1:-1]))
        else:
            yield event


def fast_enumerate_set_paths_directed(
    fd: FastDiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    meter=None,
) -> Iterator[Path]:
    """All directed ``S``-``T`` paths (kernel backend, original arc ids)."""
    src_list, tgt_list = _split_sets(fd, sources, targets)
    ctx = _dir_ctx(fd, src_list, tgt_list, meter)
    return _events(ctx, ctx.s_star, ctx.t_star, emit=3)
