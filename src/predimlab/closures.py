"""Intrinsic closure, dimension and d-closure relative to a finite ambient.

Because the predimension is submodular, ``min{delta(Y) : X <= Y <= S}`` can
be computed exactly two independent ways:

* one lattice table per structure over all bitmasks, after whose build every
  query is an index (small ambients; doubles as the oracle);
* a project-selection max-flow reduction (any ambient size, polynomial).

The set of minimizers is a lattice.  Its least element is the intrinsic
closure cl0(X) (smallest self-sufficient superset), its greatest element is
the d-closure cld(X) (all points of zero relative dimension), and the common
minimum value is the dimension dim(X).  Both engines return all three; they
must agree everywhere, and the tests assert that they do.

All values are ambient-relative: computed inside the given finite structure,
with no claim about any infinite limit.
"""

from __future__ import annotations

import functools
from array import array
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import CapacityError, InputError
from .structures import FiniteStructure, _bits

TABLE_MAX_BITS = 20  # hard memory guard for the table engine
DEFAULT_TABLE_CUTOFF = 16
TABLE_CACHE_BYTES = 4 << 20  # tables the ledger keeps for structures built again
TABLE_WEIGHT_CAP = 1 << 62  # bounds n * vertex weight + total instance weight: int64 fits


# Nothing in the library calls this; the benchmark stamps the caps in effect
# through it, and it goes with ROADMAP item 1's benchmark change.
def _table_cutoff() -> int:
    return DEFAULT_TABLE_CUTOFF


@dataclass(frozen=True)
class ClosureResult:
    closure: frozenset[int]
    dimension: int
    trace: tuple[frozenset[int], ...]  # absorbed witness sets, for diagnostics


# -- table engine --------------------------------------------------------------


def popcounts(n: int) -> np.ndarray:
    """Number of set bits of every mask below 2**n, as int64 (not cached)."""
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        step = 1 << i
        pc[step : 2 * step] = pc[:step] + 1
    return pc


def _over_subsets(arr: np.ndarray, op: np.ufunc, up: bool = True) -> None:
    """In place over the leading axis, indexed by mask: ``arr[b]`` becomes
    the ``op`` fold of ``arr[y]`` over the y inside b (``up``) or containing b.

    One pass per bit; the leading axis comes first, so each pass runs on
    contiguous blocks of the other axes.
    """
    step = 1
    while step < len(arr):
        view = arr.reshape(-1, 2, step, *arr.shape[1:])
        lo, hi = view[:, 0], view[:, 1]
        if up:
            op(hi, lo, out=hi)
        else:
            op(lo, hi, out=lo)
        step *= 2


TableCacheInfo = namedtuple("TableCacheInfo", "hits misses")


class _TableLedger:
    """Recently built lattice tables, least recently used first, charged by bytes.

    A structure keeps its tables in its ``_tables`` slot, the list
    ``[delta table, (least, greatest)]`` with None for one not built yet, and
    frees them with itself.  The ledger maps a structure's equality key to
    such a list, so an entry pins neither a structure nor its flow network,
    and a structure with an empty slot takes the list of an equal one.  Each
    build enters its list as the newest entry and evicts the oldest until
    the bytes charged are within ``TABLE_CACHE_BYTES``; a list above the
    budget stays on its structures alone.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()  # key -> (tables, bytes charged)
        self.nbytes = 0

    def take(self, S: FiniteStructure) -> list:
        """Fill S's empty slot: an equal structure's tables, or none built yet."""
        entry = self._entries.get(S._key)
        if entry is None:
            S._tables = [None, None]
        else:
            self._entries.move_to_end(S._key)
            S._tables = entry[0]
        return S._tables

    def charge(self, key: tuple, tables: list) -> None:
        """Enter ``tables``, just built into, as the newest entry under ``key``."""
        old =self._entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        delta, dims = tables
        size = sum(a.nbytes for a in (delta, *(dims or ())) if a is not None)
        if size <= TABLE_CACHE_BYTES:
            self._entries[key] = (tables, size)
            self.nbytes += size
        while self.nbytes > TABLE_CACHE_BYTES:
            self.nbytes -= self._entries.popitem(last=False)[1][1]


_LEDGER = _TableLedger()


def _kept_on_structure(slot: int):
    """Keep ``build(S)`` in slot ``slot`` of S's tables, through the ledger.

    The result counts hits and misses in ``cache_info()``, and
    ``__wrapped__`` is ``build`` itself, which builds without keeping.
    """

    def decorate(build):
        counts = [0, 0]

        @functools.wraps(build)
        def kept(S: FiniteStructure):
            tables = S._tables or _LEDGER.take(S)
            table = tables[slot]
            if table is None:
                counts[1] += 1
                table = tables[slot] = build(S)
                _LEDGER.charge(S._key, tables)
            else:
                counts[0] += 1
            return table

        kept.cache_info = lambda: TableCacheInfo(*counts)
        return kept

    return decorate


@_kept_on_structure(0)
def delta_table(S: FiniteStructure) -> np.ndarray:
    """delta of every vertex subset of S, indexed by bitmask."""
    n = len(S.vertices)
    if n > TABLE_MAX_BITS:
        raise CapacityError("table engine vertices", TABLE_MAX_BITS, n)
    weighted = S.bit_index().weighted
    # every delta, and every difference of two, lies within this span
    span = n * S.signature.vertex_weight + sum(w for _, w in weighted)
    if span >= TABLE_WEIGHT_CAP:
        raise CapacityError("table engine weight", TABLE_WEIGHT_CAP, span)
    size = 1 << n
    counts = np.zeros(size, dtype=np.int64)
    for imask, w in weighted:
        counts[imask] += w
    # zeta transform: counts[mask] = total weight of instances inside mask
    _over_subsets(counts, np.add)
    out = S.signature.vertex_weight * popcounts(n) - counts
    out.setflags(write=False)
    return out


@_kept_on_structure(1)
def dim_table_cached(S: FiniteStructure) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest minimizer of delta over the supersets of every mask.

    The minimizers over X form a lattice, so the least one is the unique
    minimizer with the fewest vertices and the greatest the unique one with
    the most.  Each table is therefore the mask part of one superset minimum
    over the int64 key ``code(delta(Y)) << (n + 5) | c(Y) << n | Y``, with
    ``c = popcount`` for the least and ``n - popcount`` for the greatest,
    taken with one ``np.minimum`` per bit.  ``code`` is delta minus its
    minimum while ``(span + 1) << (n + 5)`` stays below 2**62, and otherwise
    the dense rank of delta, which is below 2**n; either way the key fits.
    dim(X) = delta(least[X]), so it is not stored.  Both arrays are
    read-only int32.
    """
    n = len(S.vertices)
    size = 1 << n
    dt = delta_table(S)
    code, lo = dt, int(dt.min())
    if (int(dt.max()) - lo + 1) << (n + 5) >= 1 << 62:
        code, lo = np.unique(dt, return_inverse=True)[1], 0
    key, low = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    tables = []
    for c_empty, dc in ((0, 1), (n, -1)):  # c = popcount, then n - popcount
        # low[Y] = c(Y) << n | Y, one bit at a time as in popcounts
        low[0] = c_empty << n
        for i in range(n):
            step = 1 << i
            np.add(low[:step], (dc << n) + step, out=low[step : 2 * step])
        np.subtract(code, lo, out=key)
        key <<= n + 5
        key |= low
        _over_subsets(key, np.minimum, up=False)
        key &= size - 1
        table = key.astype(np.int32)
        table.setflags(write=False)
        tables.append(table)
    return tables[0], tables[1]


def dim_cld_tables(S: FiniteStructure) -> tuple[np.ndarray, np.ndarray]:
    """dim (int64) and cld (int32) of every vertex subset, indexed by bitmask."""
    least, greatest = dim_table_cached(S)
    return delta_table(S)[least], greatest


# -- flow engine ---------------------------------------------------------------


_INF_CAP = 1 << 60
# Which minimizers a flow solve computes; a skipped one comes back as None.
_LEAST, _GREATEST = 1, 2


def _push(caps: list[int], path, amount: int) -> None:
    """Push ``amount`` along the edges of ``path``."""
    for eid in path:
        caps[eid] -= amount
        caps[eid ^ 1] += amount


class StructureFlowSolver:
    """Reusable project-selection network for one structure, grown along its chain.

    Nodes are allocated in creation order after the source (0) and the sink
    (1): a node per vertex, with a force-select slot from the source
    (capacity 0 until a query pins it) and an edge to the sink with the
    vertex weight, the first two edges at the node, then a project node per
    weighted instance.  ``node_pos`` maps each node to its vertex position,
    -1 off the vertices.  dim(X) = mincut - total instance weight.

    Every flow is computed by one kernel, :meth:`_max_flow`: shortest
    augmenting paths (Edmonds and Karp).  A breadth-first search from the
    source records the edge it reached each node by and stops on entering
    the first vertex node whose sink edge has residual capacity.  Only
    vertex nodes have sink edges and nodes are entered in level order, so
    that sink edge and the edges traced back from its node form a shortest
    augmenting path; the trace takes its bottleneck and pushes it.  The
    search that finds no path has visited exactly the residual source side,
    whose vertices are the least minimizer.

    The empty query is solved once and its residual kept as the base.  Each
    new project edge is first pushed greedily through its member vertices
    straight to the sink, so only what that leaves pays a search, one source
    edge at a time.  :meth:`grow` moves the network to an extension of its
    structure, as dynamic graph cuts do (Kohli and Torr): new vertex nodes
    and the project nodes of the new instances append, and since added edges
    keep the old residual a feasible flow, the base flow resumes from it.

    A query only adds capacity (the slots of X), so it resumes from the base
    residual itself and pays just the marginal augmentation, as in monotone
    parametric min-cut.  Afterwards it takes back its own pushes and closes
    its slots, in a ``finally``, so the base survives a query that raises.
    A query touches only the residual region it reaches:

    * the base keeps its residual source side, the nodes its failed searches
      reached, as a dead set.  No residual edge leaves it and none of its
      vertices has spare sink capacity, so no augmenting path enters it, and
      a push along a path that avoids it changes no edge leaving it.  Every
      search starts with those nodes marked visited, a query's from the
      slots of X alone, and finds the same paths, in the same order, as one
      that walked through them; the least minimizer adds the dead vertices
      back.  A grow keeps the set too, since the edges it adds only enter
      it, and searches only from the new source edges;
    * a search stores only the nodes it visits;
    * a query builds only the minimizers it is asked for.  The least one
      is the source side the last search visited.  The greatest one is the
      set of vertices that cannot reach the sink; a query only grows the
      source side, so these are the base's plus those the query cut off,
      found by searching again only the subtrees of a base co-reach tree
      that hang below edges the query saturated.
    """

    def __init__(self, S: FiniteStructure):
        self.n_items = 0
        self.to: list[int] = []
        self.base_caps: list[int] = []
        self.head: list[list[int]] = [[], []]
        self.node_pos = [-1, -1]
        self.slot_eid: list[int] = []
        self.total_w = 0
        self._base_flow = 0
        # the base's residual source side, each node mapped to -1 as a
        # search's ``pred`` maps the source, and the mask of its vertices
        self._dead: dict[int, int] = {0: -1}
        self._dead_mask = 0
        self._extend(S, S.bit_index().weighted)

    def grow(self, prev: FiniteStructure, out: FiniteStructure) -> bool:
        """Move the network from ``prev``, the structure it was built for, to
        ``out``, an extension of it.

        ``out`` must share the signature, keep prev's vertex positions as a
        prefix, hold every instance of prev and add only instances that meet
        a new position, as a chain step does; otherwise nothing changes and
        the answer is False.  The new weighted instances are those out's
        index tops at the new positions.  Weights too large for the network
        raise ``CapacityError`` (see :meth:`_extend`), with nothing changed.
        """
        n = self.n_items
        if out.signature != prev.signature or out.vertices[:n] != prev.vertices:
            return False
        old, bx = prev.bit_index().pairs, out.bit_index()
        if not old <= bx.pairs or not all(m >> n for _, m in bx.pairs - old):
            return False
        self._extend(out, bx.weighted[bx.starts[n]:])
        return True

    def _extend(self, out: FiniteStructure, pairs) -> None:
        """Append out's new vertices and the project nodes of ``pairs``, push
        each new project edge greedily to the sink through its members, then
        resume the base flow from the new source edges the greedy pass left
        live; the old live ones lead only into the dead set.

        Before any change it raises ``CapacityError`` unless cutting every
        project and vertex edge costs less than ``_INF_CAP``, so that no
        minimum cut takes an infinite edge.
        """
        to, caps, head, node_pos = self.to, self.base_caps, self.head, self.node_pos
        slot_eid = self.slot_eid

        def add(u, v, c):
            head[u].append(len(to))
            to.append(v)
            caps.append(c)
            head[v].append(len(to))
            to.append(u)
            caps.append(0)

        def node(pos):
            head.append([])
            node_pos.append(pos)
            return len(head) - 1

        nw = out.signature.vertex_weight
        total_w = self.total_w + sum(w for _, w in pairs)
        cut = total_w + len(out.vertices) * nw
        if cut >= _INF_CAP:
            raise CapacityError("flow engine weight", _INF_CAP, cut)
        added = [node(i) for i in range(self.n_items, len(out.vertices))]
        for u in added:
            slot_eid.append(len(to))
            add(0, u, 0)
        for u in added:
            add(u, 1, nw)
        src = []
        flow = 0
        for imask, w in pairs:
            pnode = node(-1)
            eid = len(to)
            add(0, pnode, w)
            for i in _bits(imask):
                v = to[slot_eid[i]]
                path = (eid, len(to), head[v][1])  # project, member, sink
                add(pnode, v, _INF_CAP)
                pushed = min(caps[eid], caps[path[2]])
                if pushed > 0:
                    _push(caps, path, pushed)
                    flow += pushed
            if caps[eid] > 0:
                src.append(eid)
        self.n_items, self.total_w = len(out.vertices), total_w
        # one source edge at a time: a search then starts from one project
        # node, not from all of them.  A node that cannot reach the sink never
        # can again, so one pass over the edges leaves no path, and later
        # searches skip the nodes a failed search visited.
        for eid in src:
            extra, reach = self._max_flow([eid], [])
            flow += extra
            self._dead.update(dict.fromkeys(reach, -1))
        self._base_flow += flow
        self._dead_mask = self._vertex_mask(self._dead)
        self._sink_tree = None  # built by the first query for a greatest minimizer

    def _augment(self, xmask: int, pushes: list):
        """Open the slots of X on the base residual and max-flow.

        Returns dim(X) and the source side (see :meth:`_max_flow`).
        The caller must hand ``xmask`` and ``pushes`` to :meth:`_restore`
        afterwards, also when this raises.
        """
        caps, slot_eid = self.base_caps, self.slot_eid
        # the base's live source edges lead into the dead set, so X's slots
        # are the whole source adjacency
        src = []
        while xmask:
            low = xmask & -xmask
            eid = slot_eid[low.bit_length() - 1]
            caps[eid] = _INF_CAP
            src.append(eid)
            xmask ^= low
        extra, reach = self._max_flow(src, pushes)
        return self._base_flow + extra - self.total_w, reach

    def _restore(self, xmask: int, pushes: list) -> None:
        """Take back a query's pushes and close the slots of X: the base again.

        An edge back at capacity ``_INF_CAP`` gets that one shared int again;
        otherwise every edge a query used would keep its own copy of it.
        """
        caps, slot_eid = self.base_caps, self.slot_eid
        for path, pushed in pushes:
            for eid in path:
                c = caps[eid] + pushed
                caps[eid] = _INF_CAP if c == _INF_CAP else c
                c = caps[eid ^ 1] - pushed
                caps[eid ^ 1] = _INF_CAP if c == _INF_CAP else c
        for i in _bits(xmask):
            caps[slot_eid[i]] = 0

    # nothing in the library calls this; the benchmark's tracer wraps it by name
    def solve_value(self, xmask: int) -> int:
        return self.solve(xmask, 0)[0]

    def solve(
        self, xmask: int, need: int = _LEAST | _GREATEST
    ) -> tuple[int, int | None, int | None]:
        """(dim, least, greatest minimizer) over supersets of X, those in ``need``."""
        if need & _GREATEST and self._sink_tree is None:
            self._sink_tree = self._build_sink_tree()  # needs the base residual
        pushes: list = []
        try:
            dim_val, reach = self._augment(xmask, pushes)
            minimal = maximal = None
            if need & _LEAST:
                minimal = self._vertex_mask(reach) | self._dead_mask | xmask
            if need & _GREATEST:
                maximal = self._cut_off(pushes) | xmask
        finally:
            self._restore(xmask, pushes)
        return dim_val, minimal, maximal

    def _vertex_mask(self, nodes: list[int]) -> int:
        node_pos = self.node_pos
        mask = 0
        for u in nodes:
            if node_pos[u] >= 0:
                mask |= 1 << node_pos[u]
        return mask

    def _max_flow(self, src: list[int], pushes: list):
        """Augment the base residual along shortest paths until none is left.

        ``src`` is the source's adjacency; no search enters the dead set,
        which is known not to reach the sink.  Returns the flow added and
        the nodes of the residual source side outside the dead set, with the
        source.
        Every push is appended to ``pushes`` as (path edges, amount), the
        sink edge first.
        """
        to, head, caps, node_pos = self.to, self.head, self.base_caps, self.node_pos
        flow = 0
        while True:
            # the edge each visited node was reached by
            pred = self._dead.copy()
            queue = [0]
            for u in queue:
                for eid in src if u == 0 else head[u]:
                    if caps[eid] > 0:
                        v = to[eid]
                        if v not in pred:
                            pred[v] = eid
                            # only vertex nodes have a sink edge, and nodes
                            # are entered in level order: the first one with
                            # spare sink capacity ends a shortest path
                            if node_pos[v] >= 0 and caps[head[v][1]] > 0:
                                break
                            queue.append(v)
                else:
                    continue
                break
            else:
                return flow, queue
            eid = head[v][1]
            path = [eid]
            pushed = caps[eid]
            while v:
                eid = pred[v]
                path.append(eid)
                if caps[eid] < pushed:
                    pushed = caps[eid]
                v = to[eid ^ 1]
            for eid in path:
                caps[eid] -= pushed
                caps[eid ^ 1] += pushed
            pushes.append((path, pushed))
            flow += pushed

    def _cut_off(self, pushes: list) -> int:
        """Mask of the vertices that cannot reach the sink after a query.

        A query only grows the source side, so they are the vertices cut off
        at the base plus those whose every residual path to the sink ran
        through an edge the query saturated.  Only the base tree's subtrees
        below such edges are searched again, the rest keeps its tree path.
        """
        up, pre, end, order, base = self._sink_tree
        to, head, caps = self.to, self.head, self.base_caps
        suspects: set[int] = set()
        for path, _ in pushes:
            for eid in path:
                u = to[eid ^ 1]
                if up[u] == eid and caps[eid] == 0 and u not in suspects:
                    suspects.update(order[pre[u]:end[u]])
        if not suspects:
            return base
        # suspects with a residual edge out of the suspects into the base
        # co-reach still reach the sink, and so does whatever reaches them
        alive = []
        for u in suspects:
            for eid in head[u]:
                v = to[eid]
                if caps[eid] > 0 and pre[v] >= 0 and v not in suspects:
                    alive.append(u)
                    break
        seen = set(alive)
        for v in alive:
            for eid in head[v]:
                u = to[eid]
                if caps[eid ^ 1] > 0 and u in suspects and u not in seen:
                    seen.add(u)
                    alive.append(u)
        return base | self._vertex_mask(suspects - seen)

    def _build_sink_tree(self):
        """BFS tree of the sink's co-reach in the base residual, in preorder.

        Returns (up, pre, end, order, base): ``up[u]`` is u's tree edge
        toward the sink, ``order[pre[u]:end[u]]`` the subtree of u (pre[u] is
        -1 off the co-reach) and ``base`` the mask of the vertices off it,
        the greatest minimizer of the empty query.
        """
        to, head, caps = self.to, self.head, self.base_caps
        n_nodes = len(head)
        up = array("i", [-1]) * n_nodes
        children: list[list[int]] = [[] for _ in range(n_nodes)]
        queue = [1]
        for v in queue:
            for eid in head[v]:
                u = to[eid]
                if caps[eid ^ 1] > 0 and up[u] < 0 and u != 1:
                    up[u] = eid ^ 1
                    children[v].append(u)
                    queue.append(u)
        pre = array("i", [-1]) * n_nodes
        order = array("i")
        stack = [1]
        while stack:
            u = stack.pop()
            pre[u] = len(order)
            order.append(u)
            stack += children[u]
        end = array("i", [1]) * n_nodes  # subtree sizes, then ends
        for u in reversed(order):
            if u != 1:
                end[to[up[u]]] += end[u]
        for u in order:
            end[u] += pre[u]
        base = ((1 << self.n_items) - 1) ^ self._vertex_mask(queue)
        return up, pre, end, order, base


def _solver_for(S: FiniteStructure) -> StructureFlowSolver:
    """S's flow network, built into its slot on first use."""
    if S._solver is None:
        S._solver = StructureFlowSolver(S)
    return S._solver


def hand_over_solver(S: FiniteStructure, out: FiniteStructure) -> None:
    """Move S's flow network, if any, to its chain extension ``out``.

    The network grows instead of being rebuilt and leaves S's slot, so a
    chain holds one network.  When ``out`` has a network already, or is not
    a chain step from S (see ``StructureFlowSolver.grow``), S's network is
    dropped, and a query on S or ``out`` builds a fresh one.
    """
    solver, S._solver = S._solver, None
    if solver is not None and out._solver is None and solver.grow(S, out):
        out._solver = solver


# -- public operations ----------------------------------------------------------


def _solve(
    S: FiniteStructure, xmask: int, engine: str = "auto", need: int = _LEAST | _GREATEST
) -> tuple[int, int | None, int | None]:
    """(dim, least, greatest minimizer) over supersets of X.

    The flow engine computes only the minimizers in ``need``; the table
    engine reads both off its cached arrays.
    """
    if _resolve_engine(S, engine) == "table":
        least, greatest = dim_table_cached(S)
        return int(delta_table(S)[least[xmask]]), int(least[xmask]), int(greatest[xmask])
    return _solver_for(S).solve(xmask, need)


def _resolve_engine(S: FiniteStructure, engine: str) -> str:
    """"table" or "flow"; "auto" picks by the vertex count."""
    if engine == "auto":
        return "table" if len(S.vertices) <= DEFAULT_TABLE_CUTOFF else "flow"
    if engine not in ("table", "flow"):
        raise InputError(f"unknown engine {engine!r}")
    return engine


def dim(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> int:
    """Ambient-relative dimension: minimum delta over supersets of X."""
    val, _, _ = _solve(S, S.mask_of(X), engine=engine, need=0)
    return val


def cl0(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> ClosureResult:
    """Smallest Y with X <= Y <= S: the least minimizer of delta over supersets.

    The least minimizer is itself self-sufficient, so one solve lands on the
    closure; the trace holds the absorbed set, or nothing when X <= S.
    """
    xmask = S.mask_of(X)
    val, minimal, _ = _solve(S, xmask, engine=engine, need=_LEAST)
    trace = (S.ids_of(minimal & ~xmask),) if minimal != xmask else ()
    return ClosureResult(S.ids_of(minimal), val, trace)


def cld(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> frozenset[int]:
    """d-closure: all vertices of zero relative dimension over X."""
    _, _, maximal = _solve(S, S.mask_of(X), engine=engine, need=_GREATEST)
    return S.ids_of(maximal)


def is_d_closed(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> bool:
    xmask = S.mask_of(X)
    _, _, maximal = _solve(S, xmask, engine=engine, need=_GREATEST)
    return maximal == xmask


def self_sufficient(
    S: FiniteStructure, A: Iterable[int], engine: str = "auto"
) -> tuple[bool, Optional[frozenset[int]]]:
    """Exact A <= S check with no enumeration cap: A is its own least minimizer.

    To check A <= B for a subset B, pass ``S.induced(B)``.  It never
    enumerates subsets, so it stays polynomial on large ambients.  On failure
    the witness is the minimal-delta, minimal-cardinality violating set.
    """
    amask = S.mask_of(A)
    _, minimal, _ = _solve(S, amask, engine=engine, need=_LEAST)
    return (True, None) if minimal == amask else (False, S.ids_of(minimal))


def d_closed_subset_masks(S: FiniteStructure, size_cap: int | None = None) -> list[int]:
    """All d-closed subset masks (size-capped), in ascending order, via the cld table."""
    _, greatest = dim_cld_tables(S)
    n = len(S.vertices)
    masks = np.arange(1 << n, dtype=np.int64)
    if size_cap is not None:
        masks = masks[popcounts(n) <= size_cap]
    return masks[greatest[masks] == masks].tolist()
