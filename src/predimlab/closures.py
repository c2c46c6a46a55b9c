"""Intrinsic closure, dimension and d-closure relative to a finite ambient.

Because the predimension is submodular, ``min{delta(Y) : X <= Y <= S}`` can
be computed exactly two independent ways:

* a subset table over all bitmasks (small ambients; doubles as the oracle);
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

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .errors import InputError
from .structures import FiniteStructure, delta_mask, _bits, _env_cap

TABLE_MAX_BITS = 20  # hard memory guard for the table engine
DEFAULT_TABLE_CUTOFF = 16


def _table_cutoff() -> int:
    cutoff = _env_cap("PREDIMLAB_TABLE_CUTOFF", DEFAULT_TABLE_CUTOFF)
    if cutoff > TABLE_MAX_BITS:
        raise InputError(
            f"environment cap PREDIMLAB_TABLE_CUTOFF={cutoff} exceeds {TABLE_MAX_BITS}"
        )
    return cutoff


@dataclass(frozen=True)
class ClosureResult:
    closure: frozenset[int]
    dimension: int
    trace: tuple[frozenset[int], ...]  # absorbed witness sets, for diagnostics


# -- table engine --------------------------------------------------------------


@lru_cache(maxsize=512)
def delta_table(S: FiniteStructure) -> np.ndarray:
    """delta of every vertex subset of S, indexed by bitmask."""
    n = len(S.vertices)
    if n > TABLE_MAX_BITS:
        raise InputError(f"table engine limited to {TABLE_MAX_BITS} vertices, got {n}")
    size = 1 << n
    counts = np.zeros(size, dtype=np.int64)
    for imask, w in S.instance_masks():
        counts[imask] += w
    # zeta transform: counts[mask] = total weight of instances inside mask
    for i in range(n):
        step = 1 << i
        view = counts.reshape(-1, 2, step)
        view[:, 1, :] += view[:, 0, :]
    pc = np.zeros(size, dtype=np.int64)
    for i in range(n):
        step = 1 << i
        pc[step : 2 * step] = pc[:step] + 1
    out = S.signature.vertex_weight * pc - counts
    out.setflags(write=False)
    return out


def dim_table(dtab: np.ndarray, n: int) -> np.ndarray:
    """dim of every subset: minimum delta over supersets, via subset DP."""
    out = dtab.copy()
    for i in range(n):
        step = 1 << i
        view = out.reshape(-1, 2, step)
        np.minimum(view[:, 0, :], view[:, 1, :], out=view[:, 0, :])
    return out


@lru_cache(maxsize=512)
def dim_table_cached(S: FiniteStructure) -> np.ndarray:
    out = dim_table(delta_table(S), len(S.vertices))
    out.setflags(write=False)
    return out


def _table_solve(S: FiniteStructure, xmask: int) -> tuple[int, int, int]:
    """(dim, minimal minimizer mask, maximal minimizer mask) by table scan."""
    n = len(S.vertices)
    dtab = delta_table(S)
    dt = dim_table_cached(S)
    best = int(dt[xmask])
    masks = np.arange(1 << n, dtype=np.int64)
    sup = (masks & xmask) == xmask
    winners = masks[sup & (dtab == best)]
    pcs = np.array([int(m).bit_count() for m in winners])
    order = np.lexsort((winners, pcs))
    minimal = int(winners[order[0]])
    maximal = int(np.bitwise_or.reduce(winners))
    return best, minimal, maximal


# -- flow engine ---------------------------------------------------------------


_INF_CAP = 1 << 60


class StructureFlowSolver:
    """Reusable project-selection network for one structure.

    Topology is built once: a force-select slot from the source to every
    vertex (capacity 0 until a query pins it), vertex-to-sink edges with the
    vertex weight, and a project node per weighted instance.  Each query
    copies the capacity array, opens the slots for X, and runs one max-flow;
    then dim(X) = mincut - total instance weight, the minimal minimizer is
    the residual source side and the maximal one the complement of the
    sink's residual co-reach.
    """

    def __init__(self, S: FiniteStructure):
        self.S = S
        n = len(S.vertices)
        self.n_items = n
        pairs = S.instance_masks()
        n_nodes = 2 + n + len(pairs)
        self.n_nodes = n_nodes
        to: list[int] = []
        caps: list[int] = []
        head: list[list[int]] = [[] for _ in range(n_nodes)]

        def add(u, v, c):
            head[u].append(len(to))
            to.append(v)
            caps.append(c)
            head[v].append(len(to))
            to.append(u)
            caps.append(0)

        self.slot_eid = []
        for i in range(n):
            self.slot_eid.append(len(to))
            add(0, 2 + i, 0)
        nw = S.signature.vertex_weight
        for i in range(n):
            add(2 + i, 1, nw)
        self.total_w = 0
        for k, (imask, w) in enumerate(pairs):
            pnode = 2 + n + k
            add(0, pnode, w)
            self.total_w += w
            for i in _bits(imask):
                add(pnode, 2 + i, _INF_CAP)
        self.to = to
        self.base_caps = caps
        self.head = [tuple(h) for h in head]
        # Warm start: run the empty-query flow once; every query only adds
        # capacity (the force-select slots), so Dinic can resume from this
        # residual and pay just the marginal augmentation.
        self._base_flow = self._max_flow(caps)

    def _solve_caps(self, xmask: int) -> tuple[int, list[int]]:
        caps = self.base_caps.copy()
        m = xmask
        i = 0
        while m:
            if m & 1:
                caps[self.slot_eid[i]] = _INF_CAP
            m >>= 1
            i += 1
        cut = self._base_flow + self._max_flow(caps)
        return cut - self.total_w, caps

    def solve_value(self, xmask: int) -> int:
        return self._solve_caps(xmask)[0]

    def solve(self, xmask: int) -> tuple[int, int, int]:
        dim_val, caps = self._solve_caps(xmask)
        minimal = 0
        reach = self._reachable(caps)
        coreach = self._coreach(caps)
        maximal = 0
        for i in range(self.n_items):
            if reach[2 + i]:
                minimal |= 1 << i
            if not coreach[2 + i]:
                maximal |= 1 << i
        return dim_val, minimal | xmask, maximal | xmask

    # standard Dinic on the static topology; iterative blocking-flow DFS
    def _max_flow(self, caps: list[int]) -> int:
        to, head = self.to, self.head
        n_nodes = self.n_nodes
        flow = 0
        while True:
            level = [-1] * n_nodes
            level[0] = 0
            queue = [0]
            for u in queue:
                lv = level[u] + 1
                for eid in head[u]:
                    v = to[eid]
                    if caps[eid] > 0 and level[v] < 0:
                        level[v] = lv
                        queue.append(v)
            if level[1] < 0:
                return flow
            it = [0] * n_nodes
            path: list[int] = []  # edge ids from the source to the current node
            u = 0
            while True:
                if u == 1:
                    pushed = min(caps[eid] for eid in path)
                    flow += pushed
                    cut_at = -1
                    for k, eid in enumerate(path):
                        caps[eid] -= pushed
                        caps[eid ^ 1] += pushed
                        if cut_at < 0 and caps[eid] == 0:
                            cut_at = k
                    del path[cut_at:]
                    u = to[path[-1]] if path else 0
                    continue
                advanced = False
                hu = head[u]
                while it[u] < len(hu):
                    eid = hu[it[u]]
                    v = to[eid]
                    if caps[eid] > 0 and level[v] == level[u] + 1:
                        path.append(eid)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    level[u] = -1
                    if not path:
                        break
                    u = to[path.pop() ^ 1]

    def _reachable(self, caps: list[int]) -> list[bool]:
        to, head = self.to, self.head
        seen = [False] * self.n_nodes
        seen[0] = True
        queue = [0]
        for u in queue:
            for eid in head[u]:
                v = to[eid]
                if caps[eid] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen

    def _coreach(self, caps: list[int]) -> list[bool]:
        to, head = self.to, self.head
        seen = [False] * self.n_nodes
        seen[1] = True
        queue = [1]
        for v in queue:
            for eid in head[v]:
                u = to[eid]
                if caps[eid ^ 1] > 0 and not seen[u]:
                    seen[u] = True
                    queue.append(u)
        return seen


@lru_cache(maxsize=64)
def _solver_for(S: FiniteStructure) -> StructureFlowSolver:
    return StructureFlowSolver(S)


def _flow_solve(S: FiniteStructure, xmask: int, within: int | None = None) -> tuple[int, int, int]:
    """Project-selection reduction; same triple as :func:`_table_solve`.

    ``within`` restricts the optimization to subsets of the given mask (that
    path induces the substructure and solves there).
    """
    if within is not None and within != S.full_mask():
        if xmask & ~within:
            raise InputError("X must lie inside the restriction set")
        sub = S.induced(S.ids_of(within))
        d, mn, mx = _flow_solve(sub, sub.mask_of(S.ids_of(xmask)))
        return d, S.mask_of(sub.ids_of(mn)), S.mask_of(sub.ids_of(mx))
    return _solver_for(S).solve(xmask)


# -- public operations ----------------------------------------------------------


def _solve(
    S: FiniteStructure, xmask: int, within: int | None = None, engine: str = "auto"
) -> tuple[int, int, int]:
    if engine == "auto":
        engine = "table" if (within is None and len(S.vertices) <= _table_cutoff()) else "flow"
    if engine == "table":
        if within is not None:
            sub = S.induced(S.ids_of(within))
            d, mn, mx = _table_solve(sub, sub.mask_of(S.ids_of(xmask)))
            return d, S.mask_of(sub.ids_of(mn)), S.mask_of(sub.ids_of(mx))
        return _table_solve(S, xmask)
    if engine == "flow":
        return _flow_solve(S, xmask, within)
    raise InputError(f"unknown engine {engine!r}")


def dim(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> int:
    """Ambient-relative dimension: minimum delta over supersets of X."""
    val, _, _ = _solve(S, S.mask_of(X), engine=engine)
    return val


def cl0(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> ClosureResult:
    """Smallest Y with X <= Y <= S: the least minimizer of delta over supersets.

    The least minimizer is itself self-sufficient, so one solve lands on the
    closure; the trace holds the absorbed set, or nothing when X <= S.
    """
    xmask = S.mask_of(X)
    val, minimal, _ = _solve(S, xmask, engine=engine)
    trace = (S.ids_of(minimal & ~xmask),) if minimal != xmask else ()
    return ClosureResult(S.ids_of(minimal), val, trace)


def cld(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> frozenset[int]:
    """d-closure: all vertices of zero relative dimension over X."""
    _, _, maximal = _solve(S, S.mask_of(X), engine=engine)
    return S.ids_of(maximal)


def is_d_closed(S: FiniteStructure, X: Iterable[int], engine: str = "auto") -> bool:
    xmask = S.mask_of(X)
    _, _, maximal = _solve(S, xmask, engine=engine)
    return maximal == xmask


def self_sufficient(
    S: FiniteStructure,
    A: Iterable[int],
    B: Iterable[int] | None = None,
    engine: str = "auto",
    want_witness: bool = True,
) -> tuple[bool, Optional[frozenset[int]]]:
    """Exact A <= B check with no enumeration cap (B defaults to all of S).

    It never enumerates subsets, so it stays polynomial on large ambients.  On
    failure the witness is the minimal-delta, minimal-cardinality violating set
    (suppressed when ``want_witness`` is off, saving a residual scan).
    """
    amask = S.mask_of(A)
    within = None if B is None else S.mask_of(B)
    if within is not None and amask & ~within:
        raise InputError("A must be a subset of B")
    if not want_witness and within is None and len(S.vertices) > _table_cutoff():
        val = _solver_for(S).solve_value(amask)
        return val >= delta_mask(S, amask), None
    val, minimal, _ = _solve(S, amask, within=within, engine=engine)
    if val >= delta_mask(S, amask):
        return True, None
    return False, S.ids_of(minimal)


def d_closed_subset_masks(S: FiniteStructure, size_cap: int | None = None) -> list[int]:
    """All d-closed subset masks (size-capped), via the dim table."""
    n = len(S.vertices)
    if n > _table_cutoff():
        raise InputError("d-closed enumeration needs the table engine")
    dt = dim_table_cached(S)
    masks = range(1 << n)
    if size_cap is not None:
        masks = [m for m in masks if m.bit_count() <= size_cap]
    return [m for m in masks if cld_from_table(dt, m) == m]


def cld_from_table(dt: np.ndarray, mask: int) -> int:
    """cld(mask) read off a dim table: add every vertex that leaves dim unchanged."""
    base = dt[mask]
    out = mask
    for i in range(len(dt).bit_length() - 1):
        bit = 1 << i
        if not mask & bit and dt[mask | bit] == base:
            out |= bit
    return out
