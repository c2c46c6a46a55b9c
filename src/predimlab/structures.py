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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CapacityError, InputError

HYPERGRAPH = "hypergraph"
BIPARTITE = "bipartite"

POINT = "point"
LINE = "line"

FORMAT_HEADER = "predimlab/1"

DEFAULT_SS_CAP = 24
DEFAULT_CANON_CAP = 8
ARITY_CAP = 16  # largest relation arity a signature takes


# Nothing in the library calls these; the benchmark stamps the caps in effect
# through them, and they go with ROADMAP item 1's benchmark change.
def ss_cap_default() -> int:
    return DEFAULT_SS_CAP


def canon_cap_default() -> int:
    return DEFAULT_CANON_CAP


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    weight: int

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise InputError(f"relation name {self.name!r} must be a nonempty identifier")
        if not 2 <= self.arity <= ARITY_CAP:
            raise InputError(
                f"relation {self.name}: arity must be from 2 to {ARITY_CAP}, got {self.arity}")
        if self.weight < 0:
            raise InputError(f"relation {self.name}: weight must be >= 0, got {self.weight}")


@dataclass(frozen=True)
class Signature:
    """Weights defining a predimension: vertex weight plus weighted relations.

    Coprimality of the vertex weight with a relation weight is not enforced;
    only the gadget constructions require it, and they check it themselves.
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


def graph_signature(n: int = 2, m: int = 1, name: str = "R") -> Signature:
    return Signature(n, (Relation(name, 2, m),))


def hypergraph_signature(n: int, m: int, r: int, name: str = "R") -> Signature:
    return Signature(n, (Relation(name, r, m),))


def polygon_signature(ngon: int) -> Signature:
    """Bipartite signature with weights (ngon-1, ngon-2)."""
    if ngon < 3:
        raise InputError(f"ngon must be >= 3, got {ngon}")
    return Signature(ngon - 1, (Relation("adj", 2, ngon - 2),), mode=BIPARTITE)


class BitIndex(NamedTuple):
    """Instances by vertex position, as bitmasks over the positions: the one
    per-structure list of them.

    Every row runs in one order: by highest position, then in storage order
    (relations as the signature lists them, then the sorted vertex tuples).
    So a chain step, whose new instances all top at new positions, only
    appends to each row; :func:`_indexed` builds and extends an index.
    """

    co: tuple[int, ...]  # co-instance neighbours of each position
    through: tuple[tuple[tuple[str, int], ...], ...]  # (relation, mask) per position
    pairs: frozenset[tuple[str, int]]  # every instance as (relation, mask)
    # the weighted instances as (mask, weight); those topped by position i
    # start at starts[i], and starts ends with their number
    weighted: tuple[tuple[int, int], ...]
    starts: tuple[int, ...]


_EMPTY_INDEX = BitIndex((), (), frozenset(), (), (0,))


def _indexed(
    signature: Signature, index: BitIndex, k: int, new: Iterable[tuple[str, int]]
) -> BitIndex:
    """``index`` grown to ``k`` positions and the instances ``new``, given as
    (relation, mask) pairs in storage order, each topped by a position the
    index does not have yet.  A fresh index grows from :data:`_EMPTY_INDEX`.
    """
    co, through, pairs, weighted, starts = index
    old = len(co)
    new = sorted(new, key=lambda pair: pair[1].bit_length())  # stable: storage order stays
    weights = {rel.name: rel.weight for rel in signature.relations}
    co, rows = list(co) + [0] * (k - old), {}
    tops, added = [0] * (k - old), []
    for name, m in new:
        for i in _bits(m):
            co[i] |= m & ~(1 << i)
            rows.setdefault(i, []).append((name, m))
        weight = weights[name]
        if weight:
            tops[m.bit_length() - 1 - old] += 1
            added.append((m, weight))
    through = list(through) + [()] * (k - old)
    for i, row in rows.items():
        through[i] += tuple(row)
    ends = list(starts)
    for count in tops:
        ends.append(ends[-1] + count)
    return BitIndex(tuple(co), tuple(through), pairs.union(new),
                    weighted + tuple(added), tuple(ends))


class FiniteStructure:
    """Immutable finite structure over a :class:`Signature`.

    Instances are stored in canonical sorted order; two structures with equal
    canonical storage compare equal.  All operations treat the structure as a
    pure value.  Three slots hold data derived from it, built on first use and
    never part of its key: the bit index, the flow network that
    :mod:`.closures` builds for it (and hands on along a chain), and the
    lattice tables that :mod:`.closures` builds or takes from an equal
    structure.  A flow query changes the network for the duration of the
    query only, so concurrent flow queries on one structure are not safe.
    """

    __slots__ = (
        "signature",
        "vertices",
        "instances",
        "parts",
        "_index",
        "_key",
        "_hash",
        "_bit_index",
        "_solver",
        "_tables",
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
        self._index = {v: i for i, v in enumerate(vs)}

        instances = instances or {}
        self.instances = {
            name: tuple(sorted(seen))
            for name, seen in _checked_instances(signature, instances, self._index).items()
        }

        if signature.mode == BIPARTITE:
            if parts is None:
                raise InputError("bipartite structure needs part labels")
            self.parts = {v: _part_label(parts, v) for v in vs}
            _check_edges(self.instances[signature.relations[0].name], self.parts)
        else:
            if parts is not None:
                raise InputError("part labels only allowed in bipartite mode")
            self.parts = None

        self._bit_index = self._solver = self._tables = None
        part_key = tuple(self.parts[v] for v in vs) if self.parts else None
        self._key = (signature, vs, tuple(sorted(self.instances.items())), part_key)
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

    def bit_index(self) -> "BitIndex":
        """The bitmask instance/adjacency index by vertex position, built once.

        Every relation counts, whatever its arity or weight, except in
        ``weighted``.
        """
        if self._bit_index is None:
            index = self._index
            new = [(name, sum(1 << index[v] for v in tup))
                   for name, tups in self.instances.items() for tup in tups]
            self._bit_index = _indexed(self.signature, _EMPTY_INDEX, len(self.vertices), new)
        return self._bit_index

    # -- derived structures -------------------------------------------------

    def induced(self, ids: Iterable[int]) -> "FiniteStructure":
        keep = self.subset(ids)
        inst = {
            name: [t for t in tups if all(v in keep for v in t)]
            for name, tups in self.instances.items()
        }
        parts = {v: self.parts[v] for v in keep} if self.parts is not None else None
        return FiniteStructure(self.signature, keep, inst, parts)

    def relabel(self, mapping: Mapping[int, int]) -> "FiniteStructure":
        if len(set(mapping.values())) != len(self.vertices):
            raise InputError("relabeling must be injective and total")
        inst = {
            name: [[mapping[v] for v in t] for t in tups]
            for name, tups in self.instances.items()
        }
        parts = (
            {mapping[v]: lab for v, lab in self.parts.items()}
            if self.parts is not None
            else None
        )
        return FiniteStructure(self.signature, mapping.values(), inst, parts)

    def with_added(
        self,
        new_vertices: Iterable[int],
        new_instances: Mapping[str, Iterable[Iterable[int]]],
        new_parts: Mapping[int, str] | None = None,
    ) -> "FiniteStructure":
        """This structure with the new vertices, instances and part labels.

        A chain step, where every new vertex id lies above the old ones and
        every new instance meets a new vertex, is assembled from this
        structure by :meth:`_extended`; any other call is built afresh.
        """
        added = sorted(set(int(v) for v in new_vertices))
        new_instances = {name: list(tups) for name, tups in new_instances.items()}
        if (not added or not self.vertices or added[0] > self.vertices[-1]) and (
            not new_parts or set(new_parts) <= set(added)
        ):
            out = self._extended(added, new_instances, new_parts)
            if out is not None:
                return out
        inst = {name: list(tups) for name, tups in self.instances.items()}
        for name, tups in new_instances.items():
            inst.setdefault(name, []).extend(tups)
        parts = dict(self.parts) if self.parts is not None else None
        if new_parts:
            parts = dict(parts or {})
            parts.update(new_parts)
        return FiniteStructure(self.signature, {*self.vertices, *added}, inst, parts)

    def _extended(
        self,
        added: list[int],
        new_instances: Mapping[str, list],
        new_parts: Mapping[int, str] | None,
    ) -> Optional["FiniteStructure"]:
        """The chain step of :meth:`with_added`, or None when a new instance
        misses the new vertices ``added`` (ascending, above the old ids).

        Only the new instances and labels are checked, with the messages the
        constructor gives.  The old positions stay, so the new instances merge
        into the sorted tuples, and a bit index built so far carries over,
        extended by :func:`_indexed`.  The result equals the constructor's,
        field for field, and holds no reference to this structure.
        """
        sig, n = self.signature, len(self.vertices)
        index = dict(self._index)
        index.update((v, n + k) for k, v in enumerate(added))
        fresh = {}  # relation -> sorted [(tuple, mask)] of the new instances
        for name, seen in _checked_instances(sig, new_instances, index).items():
            if not seen:
                continue
            if any(index[tup[-1]] < n for tup in seen):
                return None
            fresh[name] = [(tup, sum(1 << index[v] for v in tup)) for tup in sorted(seen)]
        parts = None
        if sig.mode == BIPARTITE:
            parts = dict(self.parts)
            parts.update((v, _part_label(new_parts or {}, v)) for v in added)
            _check_edges([tup for tup, _ in fresh.get(sig.relations[0].name, ())], parts)
        elif new_parts:
            raise InputError("part labels only allowed in bipartite mode")

        inst = dict(self.instances)
        for name, new in fresh.items():
            inst[name] = tuple(sorted(inst[name] + tuple(tup for tup, _ in new)))

        out = FiniteStructure.__new__(FiniteStructure)
        out.signature, out.vertices, out.instances, out.parts = (
            sig, self.vertices + tuple(added), inst, parts)
        out._index = index
        part_key = (self._key[3] or ()) + tuple(parts[v] for v in added) if parts else None
        out._key = (sig, out.vertices, tuple(sorted(inst.items())), part_key)
        out._hash = hash(out._key)
        out._bit_index = out._solver = out._tables = None
        if self._bit_index is not None:
            out._bit_index = _indexed(sig, self._bit_index, len(out.vertices),
                                      [(name, m) for name, new in fresh.items() for _, m in new])
        return out


def _checked_instances(
    signature: Signature, instances: Mapping[str, Iterable[Iterable[int]]], known
) -> dict[str, set[tuple[int, ...]]]:
    """Each relation's instances as sorted vertex tuples, in signature order.

    Raises on an unknown relation name, a wrong arity, a repeated vertex or
    a vertex not in ``known``.
    """
    for name in instances:
        signature.relation(name)  # validates the name
    out = {}
    for rel in signature.relations:
        seen = out[rel.name] = set()
        for raw in instances.get(rel.name, ()):
            tup = tuple(sorted(int(v) for v in raw))
            if len(tup) != rel.arity:
                raise InputError(
                    f"instance {tup} of {rel.name} has arity {len(tup)}, expected {rel.arity}"
                )
            if len(set(tup)) != len(tup):
                raise InputError(f"instance {tup} of {rel.name} repeats a vertex")
            for v in tup:
                if v not in known:
                    raise InputError(f"instance {tup} references unknown vertex {v}")
            seen.add(tup)
    return out


def _part_label(parts: Mapping[int, str], v: int) -> str:
    lab = parts.get(v)
    if lab not in (POINT, LINE):
        raise InputError(f"vertex {v}: part label must be point/line, got {lab!r}")
    return lab


def _check_edges(edges: Iterable[tuple[int, int]], parts: Mapping[int, str]) -> None:
    """Raise at the first edge, in the given order, inside one part."""
    for tup in edges:
        a, b = tup
        if parts[a] == parts[b]:
            raise InputError(f"edge {tup} joins two {parts[a]} vertices")


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submasks(mask: int) -> Iterator[int]:
    """The submasks of mask, ascending from 0 to mask."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


# -- embedding search ------------------------------------------------------------


def _search_steps(
    pattern: FiniteStructure, placed: int, order: Sequence[tuple[int, bool]]
) -> tuple[tuple, ...]:
    """The compiled placements of ``order`` over the pattern positions in
    ``placed``: per placement, the position, its placed co-instance
    neighbours, the pattern instances it completes, and its ``keep`` flag.
    They depend on the pattern and ``placed`` only, so a caller that
    searches one pattern over many partial maps compiles them once."""
    px = pattern.bit_index()
    steps = []
    for i, check in order:
        steps.append((i, px.co[i] & placed,
                      tuple((name, m) for name, m in px.through[i]
                            if m & ~placed & ~(1 << i) == 0),
                      check))
        placed |= 1 << i
    return tuple(steps)


def _ascending_steps(pattern: FiniteStructure, placed: int = 0) -> tuple[tuple, ...]:
    """:func:`_search_steps` for the default order: the pattern positions
    outside ``placed`` ascending, none of them flagged."""
    order = [(i, False) for i in _bits(pattern.full_mask() & ~placed)]
    return _search_steps(pattern, placed, order)


def _search(
    S: FiniteStructure,
    pattern: FiniteStructure,
    partial: dict[int, int],
    steps: Sequence[tuple],
    keep: Optional[Callable[[int], bool]] = None,
    within: Optional[Sequence[int]] = None,
    after: Optional[Sequence[int]] = None,
    upto: Optional[Sequence[int]] = None,
) -> Iterator[dict[int, int]]:
    """Induced embeddings of pattern into S extending ``partial``, placing
    the positions of the compiled ``steps`` (see :func:`_search_steps`) in
    their order, each over ascending candidates.

    ``partial`` must be an induced embedding of the pattern positions
    placed before the first step: it maps the pattern's instances among its
    vertices onto exactly the S instances among their images, and respects
    part labels.  It is not checked.  With :func:`_ascending_steps` the
    embeddings come in ascending order of their key, the S ids of the
    pattern vertices in order.  After a placement whose step is flagged,
    the image so far, as a mask of S positions, goes to ``keep``; a False
    drops every embedding through it.  ``within`` gives, per pattern
    position, a mask of the S positions the search may place it on.  With
    ascending steps, ``after`` and ``upto`` bound the key: only keys above
    ``after`` and not above ``upto`` come, and a candidate is cut as soon
    as the placed prefix of its key falls outside them.

    The search runs on vertex positions and the two structures' bitmask
    indexes: the candidates of an anchored vertex are the AND of the
    co-instance masks of its placed neighbours' images, the others range
    over all of S, and the image is masked out of both.  Consistency is
    kept incrementally: every pattern instance a placement completes must
    be an instance of S, and the S instances through the new image vertex
    inside the image must be exactly as many, so they are the images of
    those (the embedding is induced).  A candidate with no co-instance
    neighbour in the image lies in no such S instance, so its count is 0
    without a scan.
    """
    sx = S.bit_index()
    pverts, sverts = pattern.vertices, S.vertices
    pparts = [pattern.parts[v] for v in pverts] if pattern.parts else None
    phi = [-1] * len(pverts)  # pattern position -> S position
    for v, w in partial.items():
        phi[pverts.index(v)] = S.mask_of((w,)).bit_length() - 1
    img, full = S.mask_of(partial.values()), S.full_mask()

    def positions(key):
        return None if key is None else [S.mask_of((w,)).bit_length() - 1 for w in key]

    after, upto = positions(after), positions(upto)

    def image_of(m: int) -> int:
        out = 0
        for i in _bits(m):
            out |= 1 << phi[i]
        return out

    def consistent(fresh) -> bool:
        return all((name, image_of(m)) in sx.pairs for name, m in fresh)

    def rec(k: int, img: int) -> Iterator[dict[int, int]]:
        # the key prefix up to the next placement is known (the default
        # order places ascending); outside the bounds' prefixes, no
        # completion fits, and on one of them the next position is bounded
        low = high = False
        if after is not None or upto is not None:
            head = steps[k][0] if k < len(steps) else len(pverts)
            prefix = phi[:head]
            if after is not None:
                if prefix < after[:head]:
                    return
                low = prefix == after[:head]
            if upto is not None:
                if prefix > upto[:head]:
                    return
                high = prefix == upto[:head]
        if k == len(steps):
            if low:  # the key equals ``after``
                return
            out = dict(partial)
            for i, _, _, _ in steps:
                out[pverts[i]] = sverts[phi[i]]
            yield out
            return
        i, anchors, fresh, check = steps[k]
        pool = full if within is None else within[i] & full
        for j in _bits(anchors):
            pool &= sx.co[phi[j]]
        pool &= ~img
        if low:
            pool &= -1 << after[i]
        if high:
            pool &= (2 << upto[i]) - 1
        while pool:
            w = (pool & -pool).bit_length() - 1
            pool ^= 1 << w
            if pparts and pparts[i] != S.parts[sverts[w]]:
                continue
            phi[i] = w
            img_w = img | 1 << w
            if not (sx.co[w] & img):
                induced = not fresh
            else:
                induced = consistent(fresh) and len(fresh) == sum(
                    1 for _, m in sx.through[w] if m & ~img_w == 0)
            if induced and (not check or keep(img_w)):
                yield from rec(k + 1, img_w)
        phi[i] = -1

    return rec(0, img)


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
    for f in factors:  # the constructor merges the base's repeated instances
        verts |= set(f.vertices)
        if parts is not None:
            parts.update(f.parts)
        for name, tups in f.instances.items():
            inst[name].extend(tups)
    return FiniteStructure(sig, verts, inst, parts)


# -- predimension ------------------------------------------------------------


def delta(S: FiniteStructure, X: Iterable[int]) -> int:
    """Predimension of X inside S; delta(empty) = 0."""
    mask = S.mask_of(X)
    return delta_mask(S, mask)


def delta_mask(S: FiniteStructure, mask: int) -> int:
    """Predimension of the positions in mask.

    The bit index lists each weighted instance under its highest position,
    so an instance inside the mask is listed under one of the mask's
    positions.  A sparse mask reads only those runs; a dense one reads the
    list up to its highest position in one pass, since starting a run costs
    about as much as testing a few instances.
    """
    bx = S.bit_index()
    weighted, starts = bx.weighted, bx.starts
    total = S.signature.vertex_weight * mask.bit_count()
    if 4 * mask.bit_count() < len(starts):
        for i in _bits(mask):
            for imask, w in weighted[starts[i]:starts[i + 1]]:
                if imask & mask == imask:
                    total -= w
    else:
        for imask, w in itertools.islice(weighted, starts[mask.bit_length()]):
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
    # the other positions of every instance through each position; those of
    # a binary instance as the one int, which sorts as its 1-tuple would
    index = S._index
    others: list[list[tuple[str, int | list[int]]]] = [[] for _ in range(n)]
    for name, tups in S.instances.items():
        for tup in tups:
            ps = [index[v] for v in tup]
            if len(ps) == 2:
                others[ps[0]].append((name, ps[1]))
                others[ps[1]].append((name, ps[0]))
            else:
                for i in ps:
                    others[i].append((name, [j for j in ps if j != i]))
    for _ in range(n):
        sigs = [(colors[i], tuple(sorted([
                    (name, colors[js] if type(js) is int else tuple(sorted([colors[j] for j in js])))
                    for name, js in row])))
                for i, row in enumerate(others)]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _canonical_search(
    S: FiniteStructure, colors: Mapping[int, int] | None = None
) -> tuple[tuple, list[tuple[int, ...]]]:
    """:func:`canonical_form`'s value for S, with automorphisms of S that
    generate its group of label-respecting automorphisms, each a tuple that
    maps vertex positions to positions.

    A depth-first search fills the order one position at a time, from the
    refined color class that owns the position.  Each instance is encoded as
    one integer, its sorted positions read as digits in base n, so a leaf's
    encoding is a flat list of integers with the order of the tuples it
    stands for.  Two orders with equal encodings differ by an automorphism.
    A found automorphism that fixes the vertices placed so far maps a
    candidate's subtree onto that of every vertex in the candidate's orbit,
    encodings and all, so only the least candidate of each orbit is searched
    (automorphism pruning: McKay and Piperno, *Practical graph isomorphism
    II*, 2014).  The first order to reach the least encoding is never cut,
    so the value is exact; and every later order that reaches it either is
    searched, giving an automorphism, or is the image of an earlier one
    under the automorphisms found, so those generate the group.
    """
    n = len(S.vertices)
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(_refine_colors(S, colors) if n else ()):
        classes.setdefault(c, []).append(i)
    cells = [classes[c] for c in sorted(classes)]
    cell_at = [cell for cell in cells for _ in cell]
    index = S._index
    rels = [(rel.arity == 2, [[index[v] for v in t] for t in S.instances[rel.name]])
            for rel in S.signature.relations]

    def encode(pos: list[int]) -> list[int]:
        out = []
        for binary, insts in rels:
            if binary:
                codes = [a * n + b if a < b else b * n + a
                         for a, b in ((pos[x], pos[y]) for x, y in insts)]
            else:
                codes = []
                for t in insts:
                    code = 0
                    for p in sorted([pos[i] for i in t]):
                        code = code * n + p
                    codes.append(code)
            codes.sort()
            out += codes
        return out

    pos, order, used = [0] * n, [], [False] * n
    best: Optional[list[int]] = None
    best_order: list[int] = []
    autos: list[tuple[int, ...]] = []

    def search(k: int) -> None:
        nonlocal best, best_order
        if k == n:
            code = encode(pos)
            if best is None or code < best:
                best, best_order = code, order[:]
            elif code == best:
                g = [0] * n
                for a, b in zip(best_order, order):
                    g[a] = b
                autos.append(tuple(g))
            return
        fixing: list[tuple[int, ...]] = []
        checked = 0
        for c in cell_at[k]:
            if used[c]:
                continue
            if len(autos) > checked:
                fixing += [g for g in autos[checked:] if all(g[v] == v for v in order)]
                checked = len(autos)
            if fixing and _orbit_has_less(c, fixing):
                continue
            used[c], pos[c] = True, k
            order.append(c)
            search(k + 1)
            order.pop()
            used[c] = False

    search(0)
    for k, v in enumerate(best_order):
        pos[v] = k
    if colors is not None:
        labels = tuple(colors.get(S.vertices[i], 0) for i in best_order)
    elif S.parts:
        labels = tuple(S.parts[S.vertices[i]] for i in best_order)
    else:
        labels = None
    encoded = tuple(
        (rel.name, tuple(sorted(tuple(sorted(pos[i] for i in t)) for t in insts)))
        for rel, (_, insts) in zip(S.signature.relations, rels)
    )
    return (n, labels, encoded), autos


def _orbit_has_less(c: int, gens: Sequence[tuple[int, ...]]) -> bool:
    """Does the orbit of ``c`` under the group ``gens`` generate hold a
    smaller point?"""
    orbit, todo = {c}, [c]
    while todo:
        x = todo.pop()
        for g in gens:
            y = g[x]
            if y < c:
                return True
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return False


def canonical_form(
    S: FiniteStructure,
    cap: int = DEFAULT_CANON_CAP,
    colors: Mapping[int, int] | None = None,
) -> tuple:
    """Minimal encoding over label-respecting vertex permutations.

    The value is ``(n, labels, relations)``.  Color refinement splits the
    vertex positions into classes, listed by refined color; an order lists
    each class in some permutation, one class after the other.  Under an
    order, ``relations`` holds, per relation in signature order, the sorted
    tuple of every instance's sorted new positions, and ``labels`` the
    ``colors`` (or part labels) by new position, or None.  The value is the
    least such encoding over all orders.

    Equal encodings characterize isomorphic structures (color-respecting,
    when ``colors`` distinguishes vertices).  The value itself must not
    change: build logs print it as a task key, so their digests depend on
    it.  The hard cap guards the worst case.
    """
    n = len(S.vertices)
    if n > cap:
        raise CapacityError("canonicalization", cap, n)
    return _canonical_search(S, colors)[0]


def _rooted_key(S: FiniteStructure, base: frozenset[int]) -> tuple:
    """Canonical key of S with a distinguished base, at no cap.

    Colors replace the part labels, so they carry them: 1 on the base, +2
    on a line.
    """
    colors = {v: int(v in base) + (2 if S.parts and S.parts[v] == LINE else 0)
              for v in S.vertices}
    return canonical_form(S, cap=len(S.vertices), colors=colors)


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

    Rejects duplicate instances, repeated vertices inside an instance or on
    the vertices line, edges joining the same part in bipartite mode, part
    lines outside bipartite mode, a second signature, vertices or base line,
    a second part label for one vertex, and references to unknown ids.
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
    part_lines: dict[int, int] = {}  # vertex -> line number of its part label
    instances: dict[str, list[tuple[int, ...]]] = {}
    seen_instances: set[tuple[str, tuple[int, ...]]] = set()
    base: Optional[frozenset[int]] = None
    once: set[str] = set()  # the line kinds a file may hold only once, seen so far
    for lineno, ln in lines[1:]:
        fields = ln.split()
        kind = fields[0]
        try:
            if kind in ("signature", "vertices", "base"):
                if kind in once:
                    raise InputError(f"second {kind} line")
                once.add(kind)
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
                if len(set(vertices)) != len(vertices):
                    raise InputError("repeated vertex id")
            elif kind == "part":
                v = int(fields[1])
                if v in parts:
                    raise InputError(f"second part label for vertex {v}")
                parts[v], part_lines[v] = fields[2], lineno
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
    known = set(vertices)
    for v, lineno in part_lines.items():
        if mode != BIPARTITE:
            raise InputError(f"line {lineno}: part labels are only allowed in bipartite mode")
        if v not in known:
            raise InputError(f"line {lineno}: part label for unknown vertex {v}")
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
    return hypergraph(edges, vertices, n, m, r=2)


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

