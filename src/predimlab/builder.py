"""Budgeted construction of finite self-sufficient chains, with an auditor.

The builder enumerates small patterns in a target class, turns every
(embedded base, extension) pair into a task, and round-robins through the
tasks realizing one missing extension per visit by free amalgamation over
the embedded base.  Every step keeps the previous structure self-sufficient
(d-closed for the control-function class) in the new one, and the last
structure is inside the class; breaking either aborts loudly.

One chain reuses its work across steps.  The embedding search runs on each
structure's bitmask index.  The chain check, and the certificate that keeps
a c0 or cf structure in its class, read only the subsets of the new
vertices.  The flow network of a structure is handed to the next one and
grows.  Verdicts on images are memoized for the whole chain.  Each task
keeps a window of its first embedded bases, and a visit brings it up to
date from the embeddings that meet the vertices added since the last one,
as semi-naive evaluation does for recursive queries (Bancilhon and
Ramakrishnan); a visit never walks the bases from the first one again.

The search for a realizing copy of an extension places the pattern
anchored-first and cuts at prefixes: whenever the placed part of the pattern
is strong in the extension, its image must be strong in the structure, or no
completion of it can be (strong is transitive).  The cut is exact, so only
the number of flow queries changes, never a verdict.

Outputs are finite approximants: no claim is made about any infinite limit.
Identical configs replay to byte-identical logs and structures.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .classes import ControlFunction, MembershipResult, in_C0, in_Cf, in_Kn
from .closures import hand_over_solver, is_d_closed, self_sufficient
from .errors import CapacityError, InputError, InternalError
from .reports import FAIL
from .structures import (
    BIPARTITE,
    LINE,
    POINT,
    FiniteStructure,
    DEFAULT_CANON_CAP,
    Signature,
    _ascending_steps,
    _bits,
    _canonical_search,
    _mask,
    _rooted_key,
    _search,
    _search_steps,
    _submasks,
    dump_structure,
)

C0 = "c0"
CF = "cf"
KN = "kn"

# a task visit examines only the first this many good embedded bases, by
# key; keeps a visit from drowning in already-realized embeddings deep in
# the order
SCAN_WINDOW = 50

# embedded bases per task that an audit checks by default: the
# extension-property suite's and ``predimlab audit``'s
DEFAULT_CAP_PER_TASK = 4


def _in_class(
    S: FiniteStructure, tag: str, control: Optional[ControlFunction]
) -> MembershipResult:
    """S's membership in the class ``tag``; kn reads its n from S's signature."""
    if tag == C0:
        return in_C0(S)
    if tag == CF:
        return in_Cf(S, control)
    return in_Kn(S)


def enumerate_class(
    signature: Signature,
    tag: str,
    max_size: int,
    control: Optional[ControlFunction] = None,
) -> list[FiniteStructure]:
    """All isomorphism types in the class up to ``max_size``, canonically ordered.

    Grown by vertex augmentation, which is complete because the classes are
    hereditary; every emitted structure is certified in-class.  For kn the
    signature fixes n (:func:`in_Kn`).
    """
    if tag not in (C0, CF, KN):
        raise InputError(f"unknown class tag {tag!r}")
    if tag == CF and control is None:
        raise InputError("cf enumeration needs a control function")
    return _isomorph_free_types(
        signature, max_size, lambda S: _in_class(S, tag, control).verdict != FAIL
    )


def _isomorph_free_types(
    signature: Signature,
    max_size: int,
    keep: Callable[[FiniteStructure], bool],
) -> list[FiniteStructure]:
    """One structure per isomorphism type, up to ``max_size`` vertices, by
    size and then canonical form.

    Each level grows every type of the one below by a vertex in every way
    and keeps the candidates that pass ``keep``.  That reaches every type
    when ``keep`` is hereditary and an isomorphism invariant.  A type's
    representative is its first candidate; :func:`_augmentations` leaves out
    a candidate that an automorphism of its base maps onto an earlier one,
    as it can never be the first of its type.  Sizes above
    ``DEFAULT_CANON_CAP`` raise ``CapacityError``.
    """
    if max_size > DEFAULT_CANON_CAP:
        raise CapacityError("class enumeration size", DEFAULT_CANON_CAP, max_size)
    empty = FiniteStructure(signature, [], {}, {} if signature.mode == BIPARTITE else None)
    level, out = [(empty, [])], [empty]
    for size in range(1, max_size + 1):
        seen: dict[tuple, tuple[FiniteStructure, list]] = {}
        for base, autos in level:
            for cand in _augmentations(base, size - 1, autos):
                if keep(cand):
                    key, cand_autos = _canonical_search(cand)
                    seen.setdefault(key, (cand, cand_autos))
        level = [seen[k] for k in sorted(seen)]
        out.extend(S for S, _ in level)
    return out


def _augmentations(
    base: FiniteStructure, new_v: int, autos: list[tuple[int, ...]]
) -> Iterator[FiniteStructure]:
    """Every one-vertex extension of ``base`` by ``new_v``, one per orbit of
    the automorphisms ``autos`` (position maps) generate on the instance
    sets the new vertex can take: the first of each, in order."""
    sig = base.signature
    labels = [None]
    if sig.mode == BIPARTITE:
        labels = [POINT, LINE]
    vs = base.vertices
    maps = [{vs[i]: vs[j] for i, j in enumerate(g)} for g in autos]
    for lab in labels:
        pool = []
        for rel in sig.relations:
            for combo in itertools.combinations(vs, rel.arity - 1):
                if lab is not None and any(
                    base.parts[v] == lab for v in combo if rel.arity == 2
                ):
                    continue
                pool.append((rel.name, tuple(sorted((*combo, new_v)))))
        at = {entry: k for k, entry in enumerate(pool)}
        perms = [[at[name, tuple(sorted(g.get(v, v) for v in tup))] for name, tup in pool]
                 for g in maps]

        def images(sel: int) -> Iterator[int]:
            for perm in perms:
                yield sum(1 << perm[k] for k in _bits(sel))

        for sel in _orbit_firsts(range(1 << len(pool)), images):
            inst = {name: list(tups) for name, tups in base.instances.items()}
            for k in _bits(sel):
                name, tup = pool[k]
                inst.setdefault(name, []).append(tup)
            parts = dict(base.parts) if base.parts is not None else None
            if lab is not None:
                parts = dict(parts or {})
                parts[new_v] = lab
            yield FiniteStructure(sig, list(vs) + [new_v], inst, parts)


def _orbit_firsts(points: Iterable, images: Callable[[object], Iterable]) -> Iterator:
    """The first point of each orbit, in the order of ``points``, of the
    group that the maps behind ``images`` generate: a point that no chain of
    images reaches from an earlier one."""
    reached = set()
    for p in points:
        if p in reached:
            continue
        yield p
        reached.add(p)
        todo = [p]
        while todo:
            for q in images(todo.pop()):
                if q not in reached:
                    reached.add(q)
                    todo.append(q)


@dataclass(frozen=True)
class ExtensionTask:
    """An extension pattern with a distinguished embedded base."""

    ext: FiniteStructure
    base_ids: frozenset[int]
    tag: str
    key: tuple = field(compare=False, default=())

    @cached_property
    def base_pattern(self) -> FiniteStructure:
        return self.ext.induced(self.base_ids)

    @cached_property
    def base_positions(self) -> tuple[int, ...]:
        """The ext positions of the base vertices, ascending: position k of
        ``base_pattern`` is position ``base_positions[k]`` of ``ext``."""
        return tuple(_bits(self.ext.mask_of(self.base_ids)))

    @cached_property
    def search_plan(self) -> tuple[tuple[int, bool], ...]:
        """The anchored-first placement order of the positions outside the
        base, each paired with whether the prefix it completes (the base and
        every position up to it) is strong in ``ext``.

        The next position is the lowest unplaced one with a placed
        co-instance neighbour, or the lowest unplaced one if there is none.
        The whole pattern is strong in itself, so the last flag is True.
        """
        co = self.ext.bit_index().co
        placed = self.ext.mask_of(self.base_ids)
        plan = []
        while placed != self.ext.full_mask():
            free = list(_bits(self.ext.full_mask() & ~placed))
            i = next((j for j in free if co[j] & placed), free[0])
            placed |= 1 << i
            plan.append((i, _is_strong(self.ext, placed, self.tag)))
        return tuple(plan)

    @cached_property
    def search_steps(self) -> tuple:
        """``search_plan`` compiled over the base (see :func:`_search_steps`),
        once per task rather than once per search."""
        return _search_steps(self.ext, self.ext.mask_of(self.base_ids), self.search_plan)

    @cached_property
    def base_steps(self) -> tuple:
        """The ascending steps of ``base_pattern``, for the searches of
        embedded bases."""
        return _ascending_steps(self.base_pattern)


def enumerate_tasks(
    patterns: list[FiniteStructure],
    tag: str,
) -> tuple[list[ExtensionTask], list[ExtensionTask]]:
    """(tasks, skipped) over all rooted (base, extension) pairs up to isomorphism.

    The base must be self-sufficient in the extension (d-closed for the
    control-function class); the polygon class additionally requires a
    d-closed base for its amalgamation step, and pairs failing only that are
    returned in ``skipped``.  The first base of each isomorphism type gives
    its task, so a base that an automorphism of its extension maps onto an
    earlier base of the same size is never looked at.
    """
    tasks: dict[tuple, ExtensionTask] = {}
    skipped: dict[tuple, ExtensionTask] = {}
    for ext in patterns:
        if not ext.vertices:
            continue
        verts = list(ext.vertices)
        maps = [dict(zip(verts, (verts[j] for j in g))) for g in _canonical_search(ext)[1]]

        def images(combo: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            for g in maps:
                yield tuple(sorted(g[v] for v in combo))

        for bsize in range(0, len(verts)):
            for combo in _orbit_firsts(itertools.combinations(verts, bsize), images):
                base = frozenset(combo)
                if not _is_strong(ext, ext.mask_of(base), tag):
                    continue
                key = _rooted_key(ext, base)
                task = ExtensionTask(ext, base, tag, key)
                if tag == KN and not is_d_closed(ext, base):
                    skipped.setdefault(key, task)
                    continue
                tasks.setdefault(key, task)
    ordered = sorted(tasks.values(), key=lambda t: (len(t.base_ids), len(t.ext.vertices), t.key))
    skipped_l = sorted(skipped.values(), key=lambda t: (len(t.base_ids), len(t.ext.vertices), t.key))
    return ordered, skipped_l


# -- build -----------------------------------------------------------------------


@dataclass(frozen=True)
class BuildConfig:
    """One chain build; it draws no random number, and ``seed`` only labels its log.
    A kn build's n is the one its signature fixes (:func:`in_Kn`)."""
    signature: Signature
    tag: str
    max_pattern: int
    budget: int
    seed: int = 0
    control: Optional[ControlFunction] = None

    def __post_init__(self):
        if self.budget < 0 or self.max_pattern < 0:
            raise InputError("budgets must be nonnegative")


@dataclass
class BuildLog:
    config_key: str
    steps: list[dict] = field(default_factory=list)
    skipped_tasks: list[str] = field(default_factory=list)
    structure_dump: str = ""

    def digest(self) -> str:
        blob = json.dumps(
            {
                "config": self.config_key,
                "steps": self.steps,
                "skipped": self.skipped_tasks,
                "structure": self.structure_dump,
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class BuildResult:
    structure: FiniteStructure
    log: BuildLog
    tasks: list[ExtensionTask]


def _strong(S: FiniteStructure, image: int, tag: str, memo: dict) -> bool:
    """The chain's verdict on an image, a mask of S positions, memoized by
    mask for the whole chain: a chain step keeps the old positions.

    The verdict is d-closure for the control-function class and
    self-sufficiency otherwise.  Both persist along the chain in both
    directions.  Self-sufficiency restricts to an earlier member and
    extends by transitivity.  Along a d-closed chain S_k <=_d S_{k+1} the
    dimensions of subsets of S_k agree in both structures, so their
    d-closures do too.
    """
    got = memo.get(image)
    if got is None:
        got = memo[image] = _is_strong(S, image, tag)
    return got


def _is_strong(S: FiniteStructure, mask: int, tag: str) -> bool:
    """Are the positions in ``mask`` d-closed in S for the control-function
    class, self-sufficient otherwise?"""
    ids = S.ids_of(mask)
    return is_d_closed(S, ids) if tag == CF else self_sufficient(S, ids)[0]


def _good_base(S: FiniteStructure, image: int, tag: str, memo: dict) -> bool:
    # the polygon class asks a base to be d-closed, which implies strong: a
    # d-closed set is its own greatest minimizer, so it is self-sufficient
    if tag == KN:
        return is_d_closed(S, S.ids_of(image))
    return _strong(S, image, tag, memo)


def _realized(S: FiniteStructure, task: ExtensionTask, key: tuple[int, ...], memo: dict) -> bool:
    """Is the embedded base covered by a copy of the extension strong in S?

    The search follows ``task.search_plan`` and checks the image so far with
    :func:`_strong` after every placement that completes a prefix P strong in
    the extension; a False drops every completion.  That is exact: if an
    embedding phi had an image A' strong in S, then phi(P) <= A' because phi
    is an isomorphism onto the induced A' and P <= ext, and phi(P) <= S by
    transitivity of <=.  The same holds for <=_d, which is transitive too:
    for C inside A' <=_d S, the d-closure of C in S lies inside A', where
    dimensions agree with those in S, so it is the d-closure of C in A'.
    The last prefix is the whole pattern, so every embedding found has a
    strong image.

    ``key`` must be the key of an induced embedding of ``task.base_pattern``
    (see :func:`_search`), as every embedded base that
    :func:`_base_embeddings` or a window hands out is, so the search runs
    the task's compiled steps from it without checking it again.
    Candidates run ascending, as everywhere: the verdict asks only whether
    some embedding has a strong image, so the order changes the number of
    flow queries, never the answer.
    """
    hits = _search(S, task.ext, dict(zip(task.base_positions, key)), task.search_steps,
                   lambda img: _strong(S, img, task.tag, memo))
    return next(hits, None) is not None


def _base_embeddings(
    S: FiniteStructure,
    task: ExtensionTask,
    memo: dict,
    after: Optional[tuple[int, ...]] = None,
) -> Iterator[tuple[int, ...]]:
    """The keys of the embedded bases with a strong image, ascending, and
    only those above ``after``."""
    if not task.base_ids:
        if after is None:
            yield ()
        return
    for key in _search(S, task.base_pattern, {}, task.base_steps, after=after):
        if _good_base(S, _mask(key), task.tag, memo):
            yield key


@dataclass
class _Window:
    """What a build knows of one task's good embedded bases, by their keys:
    the S positions of the base vertices in order (see :func:`_search`).

    ``keys`` holds, by ascending key, every good key of the structure of
    size ``seen`` up to its last key (none while it is empty), or every one
    of them when ``complete``; at most ``SCAN_WINDOW``.  Every key before
    ``cursor`` is done: found realized, or amalgamated over.  ``done`` holds
    every key ever done, also those that left the window.
    """

    keys: list[tuple[int, ...]] = field(default_factory=list)
    complete: bool = False
    seen: int = 0
    cursor: int = 0
    done: set[tuple[int, ...]] = field(default_factory=set)


def _bring_up_to_date(
    S: FiniteStructure, task: ExtensionTask, win: _Window, memo: dict
) -> None:
    """Make ``win`` a window of S, reading only what is new since ``win.seen``.

    The structure grew by chain steps since: the new positions lie above
    the old, and every new instance meets a new vertex.
    So an old induced embedding stays induced, and its verdict stays (see
    :func:`_strong`); the good embeddings of S are the old ones plus the new
    good ones N that meet a new position, and those up to the last key r
    are the window's keys and the members of N up to r.  N is searched by
    the pattern position p of its first new vertex: the positions before p
    old, p new, no key beyond r.  The positions in r are all old, so p = 0
    is searched only when the window is complete.  Its goodness is judged
    in key order, only as far as the window goes, and the cursor goes back
    to the first key let in.  With nothing new the window stays as it is: the
    merge would rebuild the same keys, cursor and flag.

    The polygon class asks a base to be d-closed instead.  That stays too:
    its steps are d-closed (see :func:`_amalgamate`), so d-closures of old
    sets do not change.
    """
    n = len(S.vertices)
    if win.seen == n or not task.base_ids:
        return
    seen, win.seen = win.seen, n
    if not win.keys and not win.complete:
        return
    size = len(task.base_ids)
    old = (1 << seen) - 1
    fresh = sorted(itertools.chain.from_iterable(
        _search(S, task.base_pattern, {}, task.base_steps,
                within=[old] * p + [~old] + [-1] * (size - p - 1),
                upto=None if win.complete else win.keys[-1])
        for p in range(0 if win.complete else 1, size)))
    if not fresh:
        return
    keys = []
    for key, is_new in heapq.merge(((k, False) for k in win.keys), ((k, True) for k in fresh)):
        if len(keys) == SCAN_WINDOW:
            break
        if not is_new:
            keys.append(key)
        elif _good_base(S, _mask(key), task.tag, memo):
            win.cursor = min(win.cursor, len(keys))
            keys.append(key)
    win.keys = keys
    if len(keys) == SCAN_WINDOW:
        win.complete = False


def _open_keys(
    S: FiniteStructure, task: ExtensionTask, win: _Window, memo: dict
) -> Iterator[tuple[int, ...]]:
    """The window's keys from the cursor on that are not done yet, each
    marked done as it is handed out.  Past the last key, the walk goes on
    from it while the window has room."""
    walk = None
    while True:
        if win.cursor == len(win.keys):
            if win.complete or len(win.keys) == SCAN_WINDOW:
                return
            walk = walk or _base_embeddings(S, task, memo,
                                            after=win.keys[-1] if win.keys else None)
            key = next(walk, None)
            if key is None:
                win.complete = True
                return
            win.keys.append(key)
        key = win.keys[win.cursor]
        win.cursor += 1
        if key not in win.done:
            win.done.add(key)
            yield key


def build_generic(config: BuildConfig) -> BuildResult:
    """Round-robin chain construction; returns the approximant and its log.

    Each visit to a task works through its window of embedded bases (see
    :func:`_bring_up_to_date`): the done ones are skipped, the realized
    ones marked done, and the first unrealized one gets a fresh copy of the
    extension, which ends the visit.

    For c0 and cf a step certifies itself from what it adds (see
    :func:`_step_certified`), so while every step has, every structure of
    the chain is exactly in the class.  Otherwise (every kn build, and a c0
    or cf build after a miss) the last structure gets one check of
    :func:`_in_class`, which covers the chain: the classes are hereditary,
    and each structure of the chain is the induced structure on a prefix of
    the last one.  A FAIL raises ``InternalError`` naming the first step
    whose structure holds the witness, which already leaves the class.
    """
    patterns = enumerate_class(config.signature, config.tag, config.max_pattern, config.control)
    tasks, skipped = enumerate_tasks(patterns, config.tag)
    bipartite = config.signature.mode == BIPARTITE
    S = FiniteStructure(config.signature, [], {}, {} if bipartite else None)
    log = BuildLog(config_key=_config_key(config))
    log.skipped_tasks = [str(t.key) for t in skipped]
    windows: dict[int, _Window] = {}
    memo: dict[int, bool] = {}
    steps = 0
    f = config.control if config.tag == CF else None
    certified = config.tag != KN  # the empty structure is in every class
    while steps < config.budget:
        progressed = False
        for ti, task in enumerate(tasks):
            if steps >= config.budget:
                break
            win = windows.setdefault(ti, _Window())
            _bring_up_to_date(S, task, win, memo)
            for key in _open_keys(S, task, win, memo):
                if _realized(S, task, key, memo):
                    continue
                prev = S
                S, copy_image = _amalgamate(S, task, key)
                memo[copy_image] = True  # fresh copy over a strong base
                steps += 1
                progressed = True
                certified = certified and _step_certified(prev, S, f)
                log.steps.append(
                    {
                        "step": steps,
                        "task": ti,
                        "task_key": str(task.key),
                        "embedding": [(v, prev.vertices[w])
                                      for v, w in zip(task.base_pattern.vertices, key)],
                        "size": len(S.vertices),
                    }
                )
                break
        if not progressed:
            break
    if not certified:
        r = _in_class(S, config.tag, config.control)
        if r.verdict == FAIL:
            top = max(r.witness)
            step = next(e["step"] for e in log.steps if e["size"] > top)
            raise InternalError(f"class violated after step {step}: witness {sorted(r.witness)}")
    log.structure_dump = dump_structure(S)
    return BuildResult(S, log, tasks)


def _amalgamate(
    S: FiniteStructure, task: ExtensionTask, key: tuple[int, ...]
) -> tuple[FiniteStructure, int]:
    """S with a fresh copy of the extension over the embedded base ``key``,
    and the copy's image as a mask: the new vertices get ids above S's, so
    they take the positions from ``len(S)`` on, in the extension's order."""
    ext, n = task.ext, len(S.vertices)
    phi = {ext.vertices[i]: S.vertices[w] for i, w in zip(task.base_positions, key)}
    first = S.vertices[-1] + 1 if S.vertices else 0
    new = [v for v in ext.vertices if v not in phi]
    phi.update((v, first + k) for k, v in enumerate(new))
    new_inst: dict[str, list[tuple[int, ...]]] = {}
    for name, tups in ext.instances.items():
        for tp in tups:
            if any(v not in task.base_ids for v in tp):
                new_inst.setdefault(name, []).append(tuple(sorted(phi[v] for v in tp)))
    new_parts = {phi[v]: ext.parts[v] for v in new} if ext.parts else None
    out = S.with_added([phi[v] for v in new], new_inst, new_parts)
    # the cf and kn tasks have bases d-closed in their extensions, which
    # makes their steps d-closed: new vertices V have delta(V/S) =
    # delta(V/base) > 0
    _check_chain(n, out, strict=task.tag != C0)
    hand_over_solver(S, out)
    return out, _mask(key) | ((1 << len(new)) - 1) << n


def _check_chain(n_prev: int, out: FiniteStructure, strict: bool) -> None:
    """Raise unless the previous structure, out's first ``n_prev`` positions,
    is self-sufficient in out (d-closed when ``strict``).

    prev <= out iff delta(V/prev) >= 0 for every V inside out - prev, and
    prev is d-closed in out iff delta(V/prev) > 0 for every non-empty such V.
    So only the subsets of the new vertices are enumerated (see
    :func:`_relative_deltas`).  The check stays exact.
    """
    for _, d in _relative_deltas(n_prev, out, (1 << n_prev) - 1):
        if d < 0 or (strict and d == 0):
            raise InternalError("chain property broken by amalgamation step")


def _relative_deltas(n_prev: int, out: FiniteStructure, cmask: int) -> Iterator[tuple[int, int]]:
    """(|V|, delta(V/C)) for every non-empty V among out's positions from
    ``n_prev`` on, where C is the old positions in ``cmask``.

    Read against the weighted instances of out that meet the new positions,
    those its index tops there, and of them the ones whose old part lies
    inside C.  That is exact for a chain step, whose new instances all meet
    a new vertex.
    """
    nw = out.signature.vertex_weight
    bx = out.bit_index()
    outside = ((1 << n_prev) - 1) & ~cmask
    new = [(m >> n_prev, w) for m, w in bx.weighted[bx.starts[n_prev]:] if not m & outside]
    for vmask in range(1, 1 << (len(out.vertices) - n_prev)):
        v = vmask.bit_count()
        yield v, nw * v - sum(w for m, w in new if m & ~vmask == 0)


def _step_certified(
    prev: FiniteStructure, out: FiniteStructure, f: Optional[ControlFunction]
) -> bool:
    """Is the chain step ``out`` of ``prev`` in the class whenever prev is?

    ``f`` is the control function, None for C0.  As :func:`_amalgamate`
    makes it, out keeps prev's vertices at their positions and adds
    vertices and instances.  The step's new instances all meet the new
    positions N, and their old vertices make up T.  So for
    A inside prev and V inside N, delta(A | V) = delta(A) + delta(V/A & T).
    When f is concave on the integers with f(0) = 0, it follows that out is
    in the class if prev is and delta(V/C) >= f(|C| + |V|) - f(|C|) for
    every C inside T and every non-empty V: with C = A & T,
    f(|A| + |V|) - f(|A|) <= f(|C| + |V|) - f(|C|).  For C0, f = 0 and
    weights are nonnegative, so C = T is the worst case, which
    :func:`_check_chain` has passed already.

    The index confirms that out adds no instance inside prev: it tops as
    many weighted instances at old positions as prev has.  Concavity is
    checked only from prev's size on; the caller certified the steps up to
    prev.  False when any of this misses, although out may still be in the
    class: the caller then checks the last structure directly.
    """
    n_prev = len(prev.vertices)
    bx = out.bit_index()
    if bx.starts[n_prev] != len(prev.bit_index().weighted):
        return False  # an instance inside the old part
    if f is None:
        return True
    n = len(out.vertices)
    if any(f(k + 1) - f(k) > f(k) - f(k - 1) for k in range(max(n_prev, 1), n)):
        return False
    touched = 0
    for m, _ in bx.weighted[bx.starts[n_prev]:]:
        touched |= m
    touched &= (1 << n_prev) - 1
    for cmask in _submasks(touched):
        c = cmask.bit_count()
        if any(d < f(c + v) - f(c) for v, d in _relative_deltas(n_prev, out, cmask)):
            return False
    return True


def _config_key(config: BuildConfig) -> str:
    sig = config.signature
    rels = ",".join(f"{r.name}:{r.arity}:{r.weight}" for r in sig.relations)
    ctrl = f"{config.control.name}:{config.control.n}" if config.control else "-"
    ngon = sig.vertex_weight + 1 if config.tag == KN else None
    return (
        f"tag={config.tag};n={sig.vertex_weight};rels={rels};mode={sig.mode};"
        f"max={config.max_pattern};budget={config.budget};seed={config.seed};"
        f"f={ctrl};ngon={ngon}"
    )


# -- audit -----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    task_key: str
    base_size: int
    embeddings_checked: int
    realized: int


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    def ratio(self) -> float:
        tot = sum(e.embeddings_checked for e in self.entries)
        return 1.0 if tot == 0 else sum(e.realized for e in self.entries) / tot


def audit_extension_property(
    S: FiniteStructure,
    tasks: Iterable[ExtensionTask],
    cap_per_task: int = DEFAULT_CAP_PER_TASK,
) -> AuditReport:
    """For each task, are its first embedded bases covered by an extension copy?"""
    entries = []
    memo: dict[int, bool] = {}
    for task in tasks:
        # zip with a range, not islice, whose stop may not pass sys.maxsize
        bases = [key for _, key in zip(range(cap_per_task), _base_embeddings(S, task, memo))]
        realized = sum(1 for key in bases if _realized(S, task, key, memo))
        entries.append(
            AuditEntry(str(task.key), len(task.base_ids), len(bases), realized)
        )
    return AuditReport(entries)
