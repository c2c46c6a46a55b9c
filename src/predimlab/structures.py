"""Finite weighted relational structures and the predimension calculus.

A structure is a finite vertex set together with symmetric, irreflexive
relation instances (sets of distinct vertices).  The predimension of a
vertex subset X is

    delta(X) = vertex_weight * |X| - sum_i weight_i * #{instances of R_i inside X}

and A <= B ("A is self-sufficient in B") means no intermediate set between
A and B has smaller delta than A.  Everything downstream (closures,
dimension, class membership, gadgets) is built on these two notions.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CapacityError, InputError

HYPERGRAPH = "hypergraph"
BIPARTITE = "bipartite"

POINT = "point"
LINE = "line"

FORMAT_HEADER = "predimlab/1"

# Cap defaults; every cap can be overridden per call or via environment.
DEFAULT_SS_CAP = 24
DEFAULT_CANON_CAP = 8


def _env_cap(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"environment cap {name}={raw!r} is not an integer") from exc
    if value < 0:
        raise InputError(f"environment cap {name}={raw!r} is negative")
    return value


# No library code reads this cap any more; it survives only because the
# benchmark stamps the caps in effect on every run.
def ss_cap_default() -> int:
    return _env_cap("PREDIMLAB_SS_CAP", DEFAULT_SS_CAP)


def canon_cap_default() -> int:
    return _env_cap("PREDIMLAB_CANON_CAP", DEFAULT_CANON_CAP)


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    weight: int

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise InputError(f"relation name {self.name!r} must be a nonempty identifier")
        if self.arity < 2:
            raise InputError(f"relation {self.name}: arity must be >= 2, got {self.arity}")
        if self.weight < 0:
            raise InputError(f"relation {self.name}: weight must be >= 0, got {self.weight}")


@dataclass(frozen=True)
class Signature:
    """Weights defining a predimension: vertex weight plus weighted relations.

    Coprimality of the vertex weight with a relation weight is recorded via
    :meth:`coprime_with` but never enforced; only the gadget constructions
    require it.
    """

    vertex_weight: int
    relations: tuple[Relation, ...]
    mode: str = HYPERGRAPH

    def __post_init__(self):
        if self.vertex_weight < 1:
            raise InputError(f"vertex weight must be positive, got {self.vertex_weight}")
        if not self.relations:
            raise InputError("signature needs at least one relation")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate relation names in {names}")
        if self.mode not in (HYPERGRAPH, BIPARTITE):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == BIPARTITE:
            if len(self.relations) != 1 or self.relations[0].arity != 2:
                raise InputError("bipartite mode requires a single binary relation")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise InputError(f"unknown relation {name!r}")

    def coprime_with(self, name: str) -> bool:
        import math

        return math.gcd(self.vertex_weight, self.relation(name).weight) == 1


def graph_signature(n: int = 2, m: int = 1, name: str = "R") -> Signature:
    return Signature(n, (Relation(name, 2, m),))


def hypergraph_signature(n: int, m: int, r: int, name: str = "R") -> Signature:
    return Signature(n, (Relation(name, r, m),))


def polygon_signature(ngon: int) -> Signature:
    """Bipartite signature with weights (ngon-1, ngon-2)."""
    if ngon < 3:
        raise InputError(f"ngon must be >= 3, got {ngon}")
    return Signature(ngon - 1, (Relation("adj", 2, ngon - 2),), mode=BIPARTITE)


class FiniteStructure:
    """Immutable finite structure over a :class:`Signature`.

    Instances are stored in canonical sorted order; two structures with equal
    canonical storage compare equal.  All operations treat the structure as a
    pure value, so sharing across threads is safe.
    """

    __slots__ = (
        "signature",
        "vertices",
        "instances",
        "parts",
        "_index",
        "_inst_masks",
        "_key",
        "_hash",
        "_adj",
    )

    def __init__(
        self,
        signature: Signature,
        vertices: Iterable[int],
        instances: Mapping[str, Iterable[Iterable[int]]] | None = None,
        parts: Mapping[int, str] | None = None,
    ):
        self.signature = signature
        vs = tuple(sorted(set(int(v) for v in vertices)))
        self.vertices = vs
        vset = set(vs)
        self._index = {v: i for i, v in enumerate(vs)}

        inst: dict[str, tuple[tuple[int, ...], ...]] = {}
        instances = instances or {}
        for name in instances:
            signature.relation(name)  # validates the name
        for rel in signature.relations:
            seen = set()
            for raw in instances.get(rel.name, ()):
                tup = tuple(sorted(int(v) for v in raw))
                if len(tup) != rel.arity:
                    raise InputError(
                        f"instance {tup} of {rel.name} has arity {len(tup)}, expected {rel.arity}"
                    )
                if len(set(tup)) != len(tup):
                    raise InputError(f"instance {tup} of {rel.name} repeats a vertex")
                for v in tup:
                    if v not in vset:
                        raise InputError(f"instance {tup} references unknown vertex {v}")
                seen.add(tup)
            inst[rel.name] = tuple(sorted(seen))
        self.instances = inst

        if signature.mode == BIPARTITE:
            if parts is None:
                raise InputError("bipartite structure needs part labels")
            pt = {}
            for v in vs:
                lab = parts.get(v)
                if lab not in (POINT, LINE):
                    raise InputError(f"vertex {v}: part label must be point/line, got {lab!r}")
                pt[v] = lab
            self.parts = pt
            for tup in inst[signature.relations[0].name]:
                a, b = tup
                if pt[a] == pt[b]:
                    raise InputError(f"edge {tup} joins two {pt[a]} vertices")
        else:
            if parts is not None:
                raise InputError("part labels only allowed in bipartite mode")
            self.parts = None

        self._inst_masks = None
        self._adj = None
        part_key = tuple(self.parts[v] for v in vs) if self.parts else None
        self._key = (signature, vs, tuple(sorted(inst.items())), part_key)
        self._hash = hash(self._key)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteStructure) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        n_inst = sum(len(t) for t in self.instances.values())
        return f"FiniteStructure({len(self.vertices)} vertices, {n_inst} instances)"

    def __len__(self):
        return len(self.vertices)

    # -- subsets as bitmasks ----------------------------------------------

    def mask_of(self, ids: Iterable[int]) -> int:
        mask = 0
        for v in ids:
            i = self._index.get(v)
            if i is None:
                raise InputError(f"vertex {v} not in structure")
            mask |= 1 << i
        return mask

    def ids_of(self, mask: int) -> frozenset[int]:
        return frozenset(self.vertices[i] for i in _bits(mask))

    def full_mask(self) -> int:
        return (1 << len(self.vertices)) - 1

    def subset(self, ids: Iterable[int]) -> frozenset[int]:
        """Normalize an id iterable into a checked frozenset."""
        out = frozenset(int(v) for v in ids)
        for v in out:
            if v not in self._index:
                raise InputError(f"vertex {v} not in structure")
        return out

    def instance_masks(self) -> tuple[tuple[int, int], ...]:
        """All weighted instances as (mask, weight) pairs; zero weights dropped."""
        if self._inst_masks is None:
            pairs = []
            for rel in self.signature.relations:
                if rel.weight == 0:
                    continue
                for tup in self.instances[rel.name]:
                    m = 0
                    for v in tup:
                        m |= 1 << self._index[v]
                    pairs.append((m, rel.weight))
            self._inst_masks = tuple(pairs)
        return self._inst_masks

    def adjacency(self) -> dict[int, set[int]]:
        """Binary adjacency pooled over all arity-2 relations."""
        if self._adj is None:
            adj: dict[int, set[int]] = {v: set() for v in self.vertices}
            found = False
            for rel in self.signature.relations:
                if rel.arity != 2:
                    continue
                found = True
                for a, b in self.instances[rel.name]:
                    adj[a].add(b)
                    adj[b].add(a)
            if not found:
                raise InputError("structure has no arity-2 relation")
            self._adj = adj
        return self._adj

    # -- derived structures -------------------------------------------------

    def induced(self, ids: Iterable[int]) -> "FiniteStructure":
        keep = self.subset(ids)
        inst = {
            name: [t for t in tups if all(v in keep for v in t)]
            for name, tups in self.instances.items()
        }
        parts = {v: self.parts[v] for v in keep} if self.parts else None
        return FiniteStructure(self.signature, keep, inst, parts)

    def relabel(self, mapping: Mapping[int, int]) -> "FiniteStructure":
        if len(set(mapping.values())) != len(self.vertices):
            raise InputError("relabeling must be injective and total")
        inst = {
            name: [[mapping[v] for v in t] for t in tups]
            for name, tups in self.instances.items()
        }
        parts = (
            {mapping[v]: lab for v, lab in self.parts.items()} if self.parts else None
        )
        return FiniteStructure(self.signature, mapping.values(), inst, parts)

    def with_added(
        self,
        new_vertices: Iterable[int],
        new_instances: Mapping[str, Iterable[Iterable[int]]],
        new_parts: Mapping[int, str] | None = None,
    ) -> "FiniteStructure":
        verts = set(self.vertices) | set(new_vertices)
        inst = {name: list(tups) for name, tups in self.instances.items()}
        for name, tups in new_instances.items():
            inst.setdefault(name, []).extend(tups)
        parts = dict(self.parts) if self.parts else None
        if new_parts:
            parts = dict(parts or {})
            parts.update(new_parts)
        return FiniteStructure(self.signature, verts, inst, parts)


def _bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def co_instance_neighbors(S: FiniteStructure) -> dict[int, set[int]]:
    """Vertices sharing any relation instance (any arity or weight) are adjacent."""
    adj: dict[int, set[int]] = {v: set() for v in S.vertices}
    for tups in S.instances.values():
        for t in tups:
            for a in t:
                for b in t:
                    if a != b:
                        adj[a].add(b)
    return adj


def instances_by_vertex(S: FiniteStructure) -> dict[int, list[tuple[str, tuple[int, ...]]]]:
    """The (relation name, instance) pairs through each vertex, in storage order."""
    idx: dict[int, list[tuple[str, tuple[int, ...]]]] = {v: [] for v in S.vertices}
    for name, tups in S.instances.items():
        for tp in tups:
            for v in tp:
                idx[v].append((name, tp))
    return idx


def free_amalgam(
    base_ids: Iterable[int], *factors: FiniteStructure
) -> FiniteStructure:
    """Disjoint union of the factors over a shared vertex set, no new relations.

    The factors must agree on the signature, on the base vertex ids and on
    the induced structure over the base; vertex ids outside the base must be
    pairwise disjoint across factors.
    """
    if not factors:
        raise InputError("free amalgam needs at least one factor")
    sig = factors[0].signature
    base = frozenset(int(v) for v in base_ids)
    base_struct = None
    seen_outside: set[int] = set()
    for f in factors:
        if f.signature != sig:
            raise InputError("free amalgam factors must share a signature")
        if not base <= set(f.vertices):
            raise InputError("base is not contained in every factor")
        ind = f.induced(base)
        if base_struct is None:
            base_struct = ind
        elif ind != base_struct:
            raise InputError("factors disagree on the induced base structure")
        outside = set(f.vertices) - base
        if outside & seen_outside:
            raise InputError("factor vertex sets overlap outside the base")
        seen_outside |= outside
    verts = set(base)
    inst: dict[str, list] = {r.name: [] for r in sig.relations}
    parts: dict[int, str] | None = {} if sig.mode == BIPARTITE else None
    seen_inst: set[tuple[str, tuple[int, ...]]] = set()
    for f in factors:
        verts |= set(f.vertices)
        if parts is not None:
            parts.update(f.parts)
        for name, tups in f.instances.items():
            for t in tups:
                key = (name, t)
                if key not in seen_inst:
                    seen_inst.add(key)
                    inst[name].append(t)
    return FiniteStructure(sig, verts, inst, parts)


# -- predimension ------------------------------------------------------------


def delta(S: FiniteStructure, X: Iterable[int]) -> int:
    """Predimension of X inside S; delta(empty) = 0."""
    mask = S.mask_of(X)
    return delta_mask(S, mask)


def delta_mask(S: FiniteStructure, mask: int) -> int:
    total = S.signature.vertex_weight * mask.bit_count()
    for imask, w in S.instance_masks():
        if imask & mask == imask:
            total -= w
    return total


def delta_rel(S: FiniteStructure, A: Iterable[int], B: Iterable[int]) -> int:
    """Relative predimension delta(A over B) = delta(A union B) - delta(B)."""
    am, bm = S.mask_of(A), S.mask_of(B)
    return delta_mask(S, am | bm) - delta_mask(S, bm)


# -- canonical forms ----------------------------------------------------------


def _refine_colors(S: FiniteStructure, colors0: Mapping[int, int] | None = None) -> list[int]:
    """Iterated color refinement; returns a color id per vertex position."""
    n = len(S.vertices)
    if colors0 is not None:
        colors = [colors0.get(v, 0) for v in S.vertices]
    elif S.parts:
        colors = [0 if S.parts[v] == POINT else 1 for v in S.vertices]
    else:
        colors = [0] * n
    pairs = S.instance_masks()
    idx_tuples = []
    for rel in S.signature.relations:
        for tup in S.instances[rel.name]:
            idx_tuples.append((rel.name, tuple(S._index[v] for v in tup)))
    for _ in range(n):
        sigs = []
        for i in range(n):
            neigh = []
            for name, tup in idx_tuples:
                if i in tup:
                    neigh.append((name, tuple(sorted(colors[j] for j in tup if j != i))))
            sigs.append((colors[i], tuple(sorted(neigh))))
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _encode_under(
    S: FiniteStructure, order: Sequence[int], colors0: Mapping[int, int] | None = None
) -> tuple:
    pos = {order[i]: i for i in range(len(order))}
    rels = []
    for rel in S.signature.relations:
        tups = sorted(tuple(sorted(pos[S._index[v]] for v in t)) for t in S.instances[rel.name])
        rels.append((rel.name, tuple(tups)))
    if colors0 is not None:
        labels = tuple(colors0.get(S.vertices[i], 0) for i in order)
    elif S.parts:
        labels = tuple(S.parts[S.vertices[i]] for i in order)
    else:
        labels = None
    return (len(S.vertices), labels, tuple(rels))


def iso_invariant(S: FiniteStructure) -> tuple:
    """Cheap isomorphism invariant used to prefilter canonicalization."""
    colors = _refine_colors(S)
    return (
        len(S.vertices),
        tuple(sorted(colors)),
        tuple((r.name, len(S.instances[r.name])) for r in S.signature.relations),
    )


def canonical_form(
    S: FiniteStructure,
    cap: int | None = None,
    colors: Mapping[int, int] | None = None,
) -> tuple:
    """Minimal encoding over label-respecting vertex permutations.

    Equal encodings characterize isomorphic structures (color-respecting,
    when ``colors`` distinguishes vertices).  Color refinement trims the
    permutation search; the hard cap guards the worst case.
    """
    cap = canon_cap_default() if cap is None else cap
    n = len(S.vertices)
    if n > cap:
        raise CapacityError("canonicalization", cap, n)
    if n == 0:
        return _encode_under(S, (), colors)
    refined = _refine_colors(S, colors)
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(refined):
        classes.setdefault(c, []).append(i)
    ordered_classes = [classes[c] for c in sorted(classes)]
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(cls) for cls in ordered_classes)
    ):
        order = [i for part in perm_parts for i in part]
        enc = _encode_under(S, order, colors)
        if best is None or enc < best:
            best = enc
    return best


def are_isomorphic(a: FiniteStructure, b: FiniteStructure, cap: int | None = None) -> bool:
    if a.signature != b.signature or len(a) != len(b):
        return False
    if iso_invariant(a) != iso_invariant(b):
        return False
    return canonical_form(a, cap) == canonical_form(b, cap)


# -- predimlab/1 file format ---------------------------------------------------


def dump_structure(S: FiniteStructure, base_ids: Iterable[int] | None = None) -> str:
    """Serialize in the versioned predimlab/1 text format.

    ``base_ids`` adds the distinguished-base annotation used for msa types.
    """
    lines = [FORMAT_HEADER]
    lines.append(f"signature n={S.signature.vertex_weight} mode={S.signature.mode}")
    for r in S.signature.relations:
        lines.append(f"relation {r.name} arity={r.arity} weight={r.weight}")
    lines.append("vertices " + " ".join(str(v) for v in S.vertices))
    if S.parts:
        for v in S.vertices:
            lines.append(f"part {v} {S.parts[v]}")
    for rel in S.signature.relations:
        for tup in S.instances[rel.name]:
            lines.append(f"instance {rel.name} " + " ".join(str(v) for v in tup))
    if base_ids is not None:
        lines.append("base " + " ".join(str(v) for v in sorted(base_ids)))
    return "\n".join(lines) + "\n"


def load_structure(text: str) -> tuple[FiniteStructure, Optional[frozenset[int]]]:
    """Parse the predimlab/1 format; returns (structure, optional base annotation).

    Rejects duplicate instances, repeated vertices inside an instance, edges
    joining the same part in bipartite mode, and references to unknown ids.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0][1] != FORMAT_HEADER:
        raise InputError(f"missing {FORMAT_HEADER} header")
    vertex_weight = None
    mode = HYPERGRAPH
    relations: list[Relation] = []
    vertices: list[int] | None = None
    parts: dict[int, str] = {}
    instances: dict[str, list[tuple[int, ...]]] = {}
    seen_instances: set[tuple[str, tuple[int, ...]]] = set()
    base: Optional[frozenset[int]] = None
    for lineno, ln in lines[1:]:
        fields = ln.split()
        kind = fields[0]
        try:
            if kind == "signature":
                for f in fields[1:]:
                    key, _, val = f.partition("=")
                    if key == "n":
                        vertex_weight = int(val)
                    elif key == "mode":
                        mode = val
                    else:
                        raise InputError(f"unknown signature field {f!r}")
            elif kind == "relation":
                name = fields[1]
                kv = dict(f.partition("=")[::2] for f in fields[2:])
                relations.append(Relation(name, int(kv["arity"]), int(kv["weight"])))
            elif kind == "vertices":
                vertices = [int(v) for v in fields[1:]]
            elif kind == "part":
                parts[int(fields[1])] = fields[2]
            elif kind == "instance":
                name = fields[1]
                tup = tuple(sorted(int(v) for v in fields[2:]))
                if (name, tup) in seen_instances:
                    raise InputError(f"duplicate instance {name} {tup}")
                seen_instances.add((name, tup))
                instances.setdefault(name, []).append(tup)
            elif kind == "base":
                base = frozenset(int(v) for v in fields[1:])
            else:
                raise InputError(f"unknown line kind {kind!r}")
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        except (IndexError, KeyError, ValueError) as exc:
            raise InputError(f"line {lineno}: malformed {kind} line {ln!r}") from exc
    if vertex_weight is None or vertices is None:
        raise InputError("file must declare a signature and a vertices line")
    sig = Signature(vertex_weight, tuple(relations), mode=mode)
    S = FiniteStructure(sig, vertices, instances, parts if mode == BIPARTITE else None)
    if base is not None:
        for v in base:
            if v not in S._index:
                raise InputError(f"base references unknown vertex {v}")
    return S, base


# -- convenience builders ------------------------------------------------------


def graph(
    edges: Iterable[tuple[int, int]],
    vertices: Iterable[int] | None = None,
    n: int = 2,
    m: int = 1,
) -> FiniteStructure:
    """Simple-graph structure under the (n, m, r=2) predimension."""
    edges = [tuple(e) for e in edges]
    verts = set(vertices or ())
    for a, b in edges:
        verts.add(a)
        verts.add(b)
    return FiniteStructure(graph_signature(n, m), verts, {"R": edges})


def hypergraph(
    instances: Iterable[Sequence[int]],
    vertices: Iterable[int] | None = None,
    n: int = 1,
    m: int = 1,
    r: int = 3,
) -> FiniteStructure:
    instances = [tuple(t) for t in instances]
    verts = set(vertices or ())
    for t in instances:
        verts.update(t)
    return FiniteStructure(hypergraph_signature(n, m, r), verts, {"R": instances})


def bipartite_graph(
    edges: Iterable[tuple[int, int]],
    points: Iterable[int],
    lines_: Iterable[int],
    ngon: int,
) -> FiniteStructure:
    pts, lns = set(points), set(lines_)
    parts = {v: POINT for v in pts}
    parts.update({v: LINE for v in lns})
    return FiniteStructure(polygon_signature(ngon), pts | lns, {"adj": list(edges)}, parts)


def path_graph(length: int, n: int = 2, m: int = 1) -> FiniteStructure:
    """Path with ``length`` edges on vertices 0..length."""
    return graph([(i, i + 1) for i in range(length)], vertices=range(length + 1), n=n, m=m)


def cycle_graph(length: int, n: int = 2, m: int = 1) -> FiniteStructure:
    if length < 3:
        raise InputError(f"cycle length must be >= 3, got {length}")
    return graph([(i, (i + 1) % length) for i in range(length)], n=n, m=m)
