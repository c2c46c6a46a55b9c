"""Budgeted construction of finite self-sufficient chains, with an auditor.

The builder enumerates small patterns in a target class, turns every
(embedded base, extension) pair into a task, and round-robins through the
tasks realizing one missing extension per visit by free amalgamation over
the embedded base.  Every step keeps the previous structure self-sufficient
(d-closed for the control-function class) in the new one and keeps the whole
structure inside the class; breaking either aborts loudly.

Outputs are finite approximants: no claim is made about any infinite limit.
Identical configs replay to byte-identical logs and structures.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .classes import ControlFunction, in_C0, in_Cf, in_Kn
from .closures import is_d_closed, self_sufficient
from .errors import CapacityError, InputError, InternalError
from .reports import FAIL
from .structures import (
    BIPARTITE,
    LINE,
    POINT,
    FiniteStructure,
    Signature,
    canonical_form,
    co_instance_neighbors,
    dump_structure,
    instances_by_vertex,
)

C0 = "c0"
CF = "cf"
KN = "kn"

LE = "LE"
LE_D = "LE_D"


def _in_class(
    S: FiniteStructure,
    tag: str,
    control: Optional[ControlFunction],
    ngon: Optional[int],
    light: bool = False,
) -> tuple[bool, str]:
    if tag == C0:
        r = in_C0(S)
    elif tag == CF:
        if light:
            r = in_Cf(S, control, conn_size=10, conn_budget=4000, samples=200)
        else:
            r = in_Cf(S, control)
    elif tag == KN:
        r = in_Kn(S, ngon)
    else:
        raise InputError(f"unknown class tag {tag!r}")
    if r.verdict == FAIL:
        return False, f"witness {sorted(r.witness) if r.witness else '?'}"
    return True, r.verdict


def enumerate_class(
    signature: Signature,
    tag: str,
    max_size: int,
    control: Optional[ControlFunction] = None,
    ngon: Optional[int] = None,
    canon_cap: int = 8,
) -> list[FiniteStructure]:
    """All isomorphism types in the class up to ``max_size``, canonically ordered.

    Grown by vertex augmentation, which is complete because the classes are
    hereditary; every emitted structure is certified in-class.
    """
    if max_size > canon_cap:
        raise CapacityError("class enumeration size", canon_cap, max_size)
    if tag == CF and control is None:
        raise InputError("cf enumeration needs a control function")
    if tag == KN and ngon is None:
        raise InputError("kn enumeration needs an ngon")
    bipartite = signature.mode == BIPARTITE
    empty = FiniteStructure(signature, [], {}, {} if bipartite else None)
    levels: list[list[FiniteStructure]] = [[empty]]
    out = [empty]
    for size in range(1, max_size + 1):
        seen: dict[tuple, FiniteStructure] = {}
        new_v = size - 1
        for base in levels[size - 1]:
            for cand in _augmentations(base, new_v):
                ok, _ = _in_class(cand, tag, control, ngon)
                if not ok:
                    continue
                key = canonical_form(cand, cap=canon_cap)
                if key not in seen:
                    seen[key] = cand
        level = [seen[k] for k in sorted(seen)]
        levels.append(level)
        out.extend(level)
    out.sort(key=lambda s: (len(s.vertices), canonical_form(s, cap=canon_cap)))
    return out


def _augmentations(base: FiniteStructure, new_v: int) -> Iterator[FiniteStructure]:
    sig = base.signature
    labels = [None]
    if sig.mode == BIPARTITE:
        labels = [POINT, LINE]
    for lab in labels:
        pool = []
        for rel in sig.relations:
            for combo in itertools.combinations(base.vertices, rel.arity - 1):
                if lab is not None and any(
                    base.parts[v] == lab for v in combo if rel.arity == 2
                ):
                    continue
                pool.append((rel.name, tuple(sorted((*combo, new_v)))))
        for sel in range(1 << len(pool)):
            inst = {name: list(tups) for name, tups in base.instances.items()}
            for k in range(len(pool)):
                if sel >> k & 1:
                    name, tup = pool[k]
                    inst.setdefault(name, []).append(tup)
            parts = dict(base.parts) if base.parts is not None else None
            if lab is not None:
                parts = dict(parts or {})
                parts[new_v] = lab
            yield FiniteStructure(sig, list(base.vertices) + [new_v], inst, parts)


@dataclass(frozen=True)
class ExtensionTask:
    """An extension pattern with a distinguished embedded base."""

    ext: FiniteStructure
    base_ids: frozenset[int]
    tag: str
    key: tuple = field(compare=False, default=())

    @property
    def base_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.base_ids))


def enumerate_tasks(
    patterns: list[FiniteStructure],
    tag: str,
) -> tuple[list[ExtensionTask], list[ExtensionTask]]:
    """(tasks, skipped) over all rooted (base, extension) pairs up to isomorphism.

    The base must be self-sufficient in the extension (d-closed for the
    control-function class); the polygon class additionally requires a
    d-closed base for its amalgamation step, and pairs failing only that are
    returned in ``skipped``.
    """
    tasks: dict[tuple, ExtensionTask] = {}
    skipped: dict[tuple, ExtensionTask] = {}
    for ext in patterns:
        if not ext.vertices:
            continue
        verts = list(ext.vertices)
        for bsize in range(0, len(verts)):
            for combo in itertools.combinations(verts, bsize):
                base = frozenset(combo)
                if tag == CF:
                    good = is_d_closed(ext, base)
                else:
                    good = self_sufficient(ext, base)[0]
                if not good:
                    continue
                colors = {v: 1 for v in base}
                key = canonical_form(ext, cap=len(verts), colors=colors)
                task = ExtensionTask(ext, base, tag, key)
                if tag == KN and not is_d_closed(ext, base):
                    skipped.setdefault(key, task)
                    continue
                tasks.setdefault(key, task)
    ordered = sorted(tasks.values(), key=lambda t: (len(t.base_ids), len(t.ext.vertices), t.key))
    skipped_l = sorted(skipped.values(), key=lambda t: (len(t.base_ids), len(t.ext.vertices), t.key))
    return ordered, skipped_l


# -- embedding search ------------------------------------------------------------


def _embeddings(
    S: FiniteStructure,
    pattern: FiniteStructure,
    partial: dict[int, int],
    s_index: dict[int, list[tuple[str, tuple[int, ...]]]] | None = None,
    s_adj: dict[int, set[int]] | None = None,
    newest_first: bool = False,
) -> Iterator[dict[int, int]]:
    """Induced embeddings of pattern into S extending ``partial``.

    Deterministic placement order: unplaced pattern vertices ascending, each
    ranging over ascending candidates (restricted to co-instance neighbors
    once anchored; newest-first flips the candidate order, which finds fresh
    amalgam copies quickly).  Consistency is maintained incrementally: every
    fully placed pattern instance must be an instance of S, and every S
    instance inside the image must be the image of a pattern instance.
    """
    pat_adj = co_instance_neighbors(pattern)
    if s_adj is None:
        s_adj = co_instance_neighbors(S)
    if s_index is None:
        s_index = instances_by_vertex(S)
    s_instances = {
        (name, tp) for name, tups in S.instances.items() for tp in tups
    }
    pat_by_vertex = instances_by_vertex(pattern)
    todo = [v for v in pattern.vertices if v not in partial]

    def new_complete(phi, v):
        out = []
        for name, tp in pat_by_vertex[v]:
            if all(u in phi for u in tp):
                out.append((name, tuple(sorted(phi[u] for u in tp))))
        return out

    def rec(phi: dict[int, int], mapped: set, rest: list[int]) -> Iterator[dict[int, int]]:
        if not rest:
            yield dict(phi)
            return
        v = rest[0]
        used = set(phi.values())
        anchored = [u for u in pat_adj[v] if u in phi]
        if anchored:
            pool = None
            for u in anchored:
                cand = s_adj[phi[u]]
                pool = set(cand) if pool is None else pool & cand
            pool = sorted(pool, reverse=newest_first)
        else:
            pool = S.vertices[::-1] if newest_first else S.vertices
        image = used
        for w in pool:
            if w in used:
                continue
            if pattern.parts and pattern.parts[v] != S.parts[w]:
                continue
            phi[v] = w
            fresh = new_complete(phi, v)
            ok = all((name, img) in s_instances for name, img in fresh)
            if ok:
                mapped_new = mapped | set(fresh)
                # S instances through w inside the current image must be mapped
                for name, tp in s_index[w]:
                    if all(u == w or u in image for u in tp):
                        if (name, tp) not in mapped_new:
                            ok = False
                            break
            if ok:
                yield from rec(phi, mapped_new, rest[1:])
            del phi[v]

    # validate and seed from the prefilled part
    phi0 = dict(partial)
    mapped0 = set()
    for name, tups in pattern.instances.items():
        for tp in tups:
            if all(u in phi0 for u in tp):
                img = tuple(sorted(phi0[u] for u in tp))
                if (name, img) not in s_instances:
                    return
                mapped0.add((name, img))
    img0 = frozenset(phi0.values())
    for w in img0:
        for name, tp in s_index[w]:
            if set(tp) <= img0 and (name, tp) not in mapped0:
                return
    if pattern.parts:
        for v, w in phi0.items():
            if pattern.parts[v] != S.parts[w]:
                return
    yield from rec(phi0, mapped0, todo)


def find_sese_embeddings(
    S: FiniteStructure,
    pattern: FiniteStructure,
    mode: str = LE,
    cap: int = 10,
    limit: Optional[int] = None,
) -> list[dict[int, int]]:
    """All embeddings of the pattern whose image is self-sufficient (LE) or
    d-closed (LE_D) in S, canonically ordered."""
    if len(pattern.vertices) > cap:
        raise CapacityError("embedding pattern size", cap, len(pattern.vertices))
    out = []
    for phi in _embeddings(S, pattern, {}):
        image = frozenset(phi.values())
        good = (
            self_sufficient(S, image)[0] if mode == LE else is_d_closed(S, image)
        )
        if good:
            out.append(phi)
            if limit is not None and len(out) >= limit:
                break
    return out


# -- build -----------------------------------------------------------------------


@dataclass(frozen=True)
class BuildConfig:
    signature: Signature
    tag: str
    max_pattern: int
    budget: int
    seed: int = 0
    control: Optional[ControlFunction] = None
    ngon: Optional[int] = None
    # per task visit, at most this many embedded bases are examined; keeps a
    # visit from drowning in already-realized embeddings deep in the order
    scan_window: int = 50

    def __post_init__(self):
        if self.budget < 0 or self.max_pattern < 0:
            raise InputError("budgets must be nonnegative")
        if self.tag == CF and self.control is None:
            raise InputError("cf builds need a control function")
        if self.tag == KN and self.ngon is None:
            raise InputError("kn builds need an ngon")


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


def _good_base(
    S: FiniteStructure,
    image: frozenset[int],
    tag: str,
    ss_cache: Optional[dict] = None,
    s_index=None,
) -> bool:
    if tag == CF:
        return is_d_closed(S, image)
    if tag == KN:
        return _cached_ss(S, image, ss_cache, s_index) and is_d_closed(S, image)
    return _cached_ss(S, image, ss_cache, s_index)


def _quick_not_ss(
    S: FiniteStructure, image: frozenset[int], s_index=None
) -> bool:
    """One-step violation test: some outside vertex attaches too heavily.

    Sound rejection only; survivors still need the exact check.
    """
    if s_index is None:
        s_index = instances_by_vertex(S)
    nw = S.signature.vertex_weight
    weights = {rel.name: rel.weight for rel in S.signature.relations}
    load: dict[int, int] = {}
    for v in image:
        for name, tp in s_index[v]:
            inside = [u for u in tp if u in image]
            if v != inside[0]:
                continue  # count each instance once
            outside = [u for u in tp if u not in image]
            if len(outside) == 1:
                w = outside[0]
                load[w] = load.get(w, 0) + weights[name]
                if load[w] > nw:
                    return True
    return False


def _cached_ss(
    S: FiniteStructure,
    image: frozenset[int],
    ss_cache: Optional[dict],
    s_index=None,
) -> bool:
    """Self-sufficiency memoized by image.

    Along a free-amalgamation chain the verdict for a fixed vertex set never
    changes (restricting a self-sufficient set to an earlier chain member
    preserves it, and extending preserves it by transitivity), so both
    polarities persist for the whole build.
    """
    if ss_cache is not None:
        got = ss_cache.get(image)
        if got is not None:
            return got
    if _quick_not_ss(S, image, s_index):
        ok = False
    else:
        ok = self_sufficient(S, image, want_witness=False)[0]
    if ss_cache is not None:
        ss_cache[image] = ok
    return ok


def _good_ext_image(
    S: FiniteStructure,
    image: frozenset[int],
    tag: str,
    ss_cache: Optional[dict] = None,
    s_index=None,
) -> bool:
    if tag == CF:
        return is_d_closed(S, image)
    return _cached_ss(S, image, ss_cache, s_index)


def _realized(
    S: FiniteStructure,
    task: ExtensionTask,
    base_phi: dict[int, int],
    s_index=None,
    ss_cache: Optional[dict] = None,
    s_adj=None,
) -> bool:
    # newest-first: fresh amalgam copies are the likeliest witnesses
    for phi in _embeddings(S, task.ext, dict(base_phi), s_index, s_adj, newest_first=True):
        if _good_ext_image(S, frozenset(phi.values()), task.tag, ss_cache, s_index):
            return True
    return False


def _base_embeddings(
    S: FiniteStructure,
    task: ExtensionTask,
    cap: Optional[int] = None,
    s_index=None,
    ss_cache: Optional[dict] = None,
    s_adj=None,
) -> Iterator[dict[int, int]]:
    """Embedded bases with a strong image, in deterministic placement order."""
    base = task.base_ids
    if not base:
        yield {}
        return
    pattern = task.ext.induced(base)
    emitted = 0
    for phi in _embeddings(S, pattern, {}, s_index, s_adj):
        if _good_base(S, frozenset(phi.values()), task.tag, ss_cache, s_index):
            yield phi
            emitted += 1
            if cap is not None and emitted >= cap:
                return


def build_generic(config: BuildConfig) -> BuildResult:
    """Round-robin chain construction; returns the approximant and its log."""
    patterns = enumerate_class(
        config.signature, config.tag, config.max_pattern, config.control, config.ngon
    )
    tasks, skipped = enumerate_tasks(patterns, config.tag)
    bipartite = config.signature.mode == BIPARTITE
    S = FiniteStructure(config.signature, [], {}, {} if bipartite else None)
    log = BuildLog(config_key=_config_key(config))
    log.skipped_tasks = [str(t.key) for t in skipped]
    realized_cache: set[tuple[int, tuple[int, ...]]] = set()
    ss_cache: Optional[dict] = {} if config.tag != CF else None
    steps = 0
    while steps < config.budget:
        progressed = False
        s_index = instances_by_vertex(S)
        s_adj = co_instance_neighbors(S)
        for ti, task in enumerate(tasks):
            if steps >= config.budget:
                break
            walked = 0
            for phi in _base_embeddings(S, task, s_index=s_index, ss_cache=ss_cache, s_adj=s_adj):
                walked += 1
                if walked > config.scan_window:
                    break
                cache_key = (ti, tuple(phi[v] for v in sorted(phi)))
                if cache_key in realized_cache:
                    continue
                if _realized(S, task, phi, s_index, ss_cache, s_adj):
                    realized_cache.add(cache_key)
                    continue
                S, copy_image = _amalgamate(S, task, phi)
                if ss_cache is not None:
                    ss_cache[copy_image] = True  # fresh copy over a strong base
                s_index = instances_by_vertex(S)
                s_adj = co_instance_neighbors(S)
                realized_cache.add(cache_key)
                steps += 1
                progressed = True
                ok, note = _in_class(S, config.tag, config.control, config.ngon, light=True)
                if not ok:
                    raise InternalError(
                        f"class violated after step {steps}: {note}"
                    )
                log.steps.append(
                    {
                        "step": steps,
                        "task": ti,
                        "task_key": str(task.key),
                        "embedding": sorted(phi.items()),
                        "size": len(S.vertices),
                    }
                )
                break
        if not progressed:
            break
    log.structure_dump = dump_structure(S)
    return BuildResult(S, log, tasks)


def _amalgamate(
    S: FiniteStructure, task: ExtensionTask, base_phi: dict[int, int]
) -> tuple[FiniteStructure, frozenset[int]]:
    prev_vertices = frozenset(S.vertices)
    next_id = (max(S.vertices) + 1) if S.vertices else 0
    phi = dict(base_phi)
    new_parts = {}
    new_ids = []
    for v in task.ext.vertices:
        if v not in phi:
            phi[v] = next_id
            new_ids.append(next_id)
            if task.ext.parts:
                new_parts[next_id] = task.ext.parts[v]
            next_id += 1
    new_inst: dict[str, list[tuple[int, ...]]] = {}
    for name, tups in task.ext.instances.items():
        for tp in tups:
            if any(v not in task.base_ids for v in tp):
                new_inst.setdefault(name, []).append(
                    tuple(sorted(phi[v] for v in tp))
                )
    out = S.with_added(new_ids, new_inst, new_parts or None)
    # chain property: the previous structure stays embedded the strong way
    if task.tag == CF:
        ok = is_d_closed(out, prev_vertices)
    else:
        ok, _ = self_sufficient(out, prev_vertices)
    if not ok:
        raise InternalError("chain property broken by amalgamation step")
    return out, frozenset(phi.values())


def _config_key(config: BuildConfig) -> str:
    sig = config.signature
    rels = ",".join(f"{r.name}:{r.arity}:{r.weight}" for r in sig.relations)
    ctrl = f"{config.control.name}:{config.control.n}" if config.control else "-"
    return (
        f"tag={config.tag};n={sig.vertex_weight};rels={rels};mode={sig.mode};"
        f"max={config.max_pattern};budget={config.budget};seed={config.seed};"
        f"f={ctrl};ngon={config.ngon}"
    )


# -- audit -----------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    task_key: str
    base_size: int
    embeddings_checked: int
    realized: int

    @property
    def ratio(self) -> float:
        return 1.0 if not self.embeddings_checked else self.realized / self.embeddings_checked


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    def ratio(self, max_base: Optional[int] = None) -> float:
        tot = rea = 0
        for e in self.entries:
            if max_base is not None and e.base_size > max_base:
                continue
            tot += e.embeddings_checked
            rea += e.realized
        return 1.0 if tot == 0 else rea / tot


def audit_extension_property(
    S: FiniteStructure,
    tasks: Iterable[ExtensionTask],
    cap_per_task: int = 4,
) -> AuditReport:
    """For each task, are its first embedded bases covered by an extension copy?"""
    entries = []
    s_index = instances_by_vertex(S)
    s_adj = co_instance_neighbors(S)
    ss_cache: dict = {}
    for task in tasks:
        bases = list(_base_embeddings(S, task, cap=cap_per_task, s_index=s_index,
                                      ss_cache=ss_cache, s_adj=s_adj))
        realized = sum(1 for phi in bases if _realized(S, task, phi, s_index, ss_cache, s_adj))
        entries.append(
            AuditEntry(str(task.key), len(task.base_ids), len(bases), realized)
        )
    return AuditReport(entries)
