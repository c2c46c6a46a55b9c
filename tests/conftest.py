import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from predimlab import (
    FiniteStructure,
    builder,
    canonical_form,
    dump_structure,
    graph,
    graph_signature,
    hypergraph_signature,
    in_C0,
    is_d_closed,
    self_sufficient,
)
from predimlab.builder import CF
from predimlab.structures import (
    LINE, POINT, Relation, Signature, _ascending_steps, _search, polygon_signature,
)
from predimlab.classes import MembershipResult
from predimlab.reports import FAIL, PARTIAL, PASS


# Light suite options for the negative-control runs.  extension-property
# builds with budget 30, the smallest seed-0 budget whose clean audit passes,
# so its control's FAIL comes from the injected fault alone.
LIGHT = {
    "beatty": {"b_max": 6},
    "gadget": {},
    "lemma49": {},
    "path-fact": {},
    "ex511": {},
    "ex512": {"samples": 50},
    "msa-bound": {"trials": 4},
    "submodularity": {"oracle_cases": 200},
    "axioms": {"lemma43_cap": 2},
    "extension-property": {"budget": 30},
    "kn": {},
}


def cycle_graph(length, n=2, m=1):
    """The cycle on vertices 0..length-1."""
    return graph([(i, (i + 1) % length) for i in range(length)], n=n, m=m)


def window_sum(seq, start, length):
    """Sum of entries start+1 .. start+length of a Beatty sequence's
    periodic extension."""
    return sum(seq.value(j) for j in range(start + 1, start + length + 1))


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def small_graphs(draw, max_n=7, n_weight=2, m_weight=1):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    return FiniteStructure(
        graph_signature(n_weight, m_weight), range(n), {"R": edges}
    )


@st.composite
def small_hypergraphs(draw, max_n=6, arity=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pool = list(itertools.combinations(range(n), arity))
    inst = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    return FiniteStructure(hypergraph_signature(1, 1, arity), range(n), {"R": inst})


# graphs, 3-hypergraphs, and a signature with a zero-weight relation
CHAIN_SIGNATURES = (
    graph_signature(2, 1),
    hypergraph_signature(1, 1, 3),
    Signature(2, (Relation("R", 2, 1), Relation("Z", 3, 0))),
)


@st.composite
def small_structures(draw, max_n=7):
    """A structure over one of ``CHAIN_SIGNATURES``."""
    sig = draw(st.sampled_from(CHAIN_SIGNATURES))
    n = draw(st.integers(min_value=0, max_value=max_n))
    inst = {}
    for rel in sig.relations:
        pool = list(itertools.combinations(range(n), rel.arity))
        inst[rel.name] = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    return FiniteStructure(sig, range(n), inst)


@st.composite
def small_bipartite(draw, max_n=8, ngon=3):
    """A bipartite-mode structure with random part labels and edges."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = {v: draw(st.sampled_from(["point", "line"])) for v in range(n)}
    pool = [(a, b) for a, b in itertools.combinations(range(n), 2) if parts[a] != parts[b]]
    edges = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    return FiniteStructure(
        Signature(ngon - 1, (Relation("adj", 2, ngon - 2),), mode="bipartite"),
        range(n), {"adj": edges}, parts,
    )


@st.composite
def extension_chains(draw, max_steps=4, max_new=3, max_instances=6, bipartite=False,
                     old_instance=True):
    """A chain of structures, each adding vertices (ids above the old ones)
    and instances to the one before, over a drawn signature, or over
    polygon_signature(3) with drawn part labels when ``bipartite``.  New
    instances meet the new vertices, apart from at most one among the old
    ones when ``old_instance``."""
    sig = polygon_signature(3) if bipartite else draw(st.sampled_from(CHAIN_SIGNATURES))
    chain = [FiniteStructure(sig, [], {}, {} if bipartite else None)]
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        S = chain[-1]
        n = len(S.vertices)
        k = draw(st.integers(min_value=0, max_value=max_new))
        parts = label = None
        if bipartite:
            parts = {v: draw(st.sampled_from((POINT, LINE))) for v in range(n, n + k)}
            label = {**S.parts, **parts}
        inst = {}
        for rel in sig.relations:
            have = set(S.instances[rel.name])
            tups = [t for t in itertools.combinations(range(n + k), rel.arity)
                    if t not in have and (label is None or label[t[0]] != label[t[1]])]
            meet = [t for t in tups if t[-1] >= n]
            inst[rel.name] = draw(
                st.lists(st.sampled_from(meet), unique=True, max_size=max_instances)
                if meet else st.just([])
            )
            old = [t for t in tups if t[-1] < n]
            if old and old_instance and draw(st.booleans()):
                inst[rel.name].append(draw(st.sampled_from(old)))
        chain.append(S.with_added(range(n, n + k), inst, parts))
    return chain


@st.composite
def subsets_of(draw, S):
    return frozenset(
        v for v in S.vertices if draw(st.booleans())
    )


def brute_delta(S, X):
    """Independent predimension oracle: direct counting from the definition."""
    X = set(X)
    total = S.signature.vertex_weight * len(X)
    for rel in S.signature.relations:
        for tup in S.instances[rel.name]:
            if set(tup) <= X:
                total -= rel.weight
    return total


def brute_min_superset(S, X):
    """Independent oracle: scan every superset of X for the minimum delta.

    Returns (min value, minimal minimizer, union of all minimizers).
    """
    X = frozenset(X)
    rest = [v for v in S.vertices if v not in X]
    best = None
    minimizers = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            Y = X | set(extra)
            d = brute_delta(S, Y)
            if best is None or d < best:
                best = d
                minimizers = [Y]
            elif d == best:
                minimizers.append(Y)
    smallest = min(minimizers, key=lambda Y: (len(Y), sorted(Y)))
    union = frozenset().union(*minimizers)
    return best, frozenset(smallest), union


def brute_self_sufficient(S, A, B):
    """Independent oracle for A <= B: enumerate every set between A and B.

    Returns (holds, witness); the witness is a violating set of minimal
    delta, ties broken by size and then by sorted vertex list.
    """
    A = frozenset(A)
    base = brute_delta(S, A)
    rest = sorted(set(B) - A)
    best = None
    for k in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            Y = A | set(extra)
            cand = (brute_delta(S, Y), len(Y), sorted(Y))
            if cand[0] < base and (best is None or cand < best):
                best = cand
    if best is None:
        return True, None
    return False, frozenset(best[2])


def brute_connected_subsets(S, max_size, budget):
    """Oracle enumeration of connected subsets as frozensets, in the DFS order
    (and with the duplicates) that ``classes.in_Cf`` must reproduce."""
    adj = {v: set() for v in S.vertices}
    for tups in S.instances.values():
        for t in tups:
            for a in t:
                adj[a].update(b for b in t if b != a)
    produced = 0
    for root in S.vertices:
        stack = [(frozenset([root]), frozenset(w for w in adj[root] if w > root))]
        while stack:
            current, frontier = stack.pop()
            yield current
            produced += 1
            if produced >= budget:
                return
            if len(current) >= max_size:
                continue
            frontier_list = sorted(frontier)
            for i, w in enumerate(frontier_list):
                new_frontier = frozenset(frontier_list[i + 1 :]) | frozenset(
                    u for u in adj[w] if u > root and u not in current
                )
                stack.append((current | {w}, new_frontier - current))


def brute_in_Cf(S, f, exhaustive_cap=18, conn_size=18, conn_budget=200_000,
                samples=1000, seed=0):
    """Oracle for ``in_Cf``: every delta counted from the definition and
    compared with the exact rational f(k)."""
    n = len(S.vertices)
    if n <= exhaustive_cap:
        best = None
        for mask in range(1 << n):
            k = mask.bit_count()
            if Fraction(brute_delta(S, S.ids_of(mask))) < f(k):
                if best is None or (k, mask) < best:
                    best = (k, mask)
        if best is None:
            c0 = in_C0(S)
            if not c0.holds:
                return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin,
                                        detail="delta bound holds but C0 fails")
            return MembershipResult(PASS, checked=1 << n)
        margin = Fraction(brute_delta(S, S.ids_of(best[1]))) - f(best[0])
        return MembershipResult(FAIL, witness=S.ids_of(best[1]), margin=margin,
                                checked=1 << n)
    c0 = in_C0(S)
    if not c0.holds:
        return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin)
    violations = []
    checked = 0
    for sub in brute_connected_subsets(S, conn_size, conn_budget):
        checked += 1
        if Fraction(brute_delta(S, sub)) < f(len(sub)):
            violations.append((len(sub), S.mask_of(sub)))
    rng = random.Random(seed)
    verts = list(S.vertices)
    for _ in range(samples):
        k = rng.randint(1, n)
        sub = rng.sample(verts, k)
        checked += 1
        if Fraction(brute_delta(S, sub)) < f(k):
            violations.append((k, S.mask_of(sub)))
    if violations:
        k, mask = min(violations)
        margin = Fraction(brute_delta(S, S.ids_of(mask))) - f(k)
        return MembershipResult(FAIL, witness=S.ids_of(mask), margin=margin,
                                checked=checked)
    return MembershipResult(
        PARTIAL,
        checked=checked,
        detail=(
            f"size {n} exceeds exhaustive cap {exhaustive_cap}; "
            f"checked {checked} subsets (connected <= {conn_size} within budget "
            f"{conn_budget}, plus {samples} seeded random); not a certificate"
        ),
    )


def brute_concavity_surrogate(f, up_to):
    """The first (x, y) with f(x+y) > f(x) + y(f(x+1) - f(x)), x + y < up_to,
    or None: the loop ``ControlFunction.validate`` once ran after its
    increment checks, which imply it."""
    for x in range(up_to):
        step = f(x + 1) - f(x)
        for y in range(up_to - x):
            if f(x + y) > f(x) + y * step:
                return x, y
    return None


def brute_class_violations(S, tag, f=None, ngon=3):
    """Oracle class check: the masks of the vertex sets of S that break the
    class by themselves.  For c0 a set of negative delta, for cf one of
    delta below f of its size.  For kn also a set of fewer than 2 ngon
    vertices holding a cycle, or a set of delta below 2 ngon + 2 holding a
    cycle longer than 2 ngon.  Each reads only the induced structure."""
    adj = {v: set() for v in S.vertices}
    for u, w in S.instances["adj"] if tag == "kn" else ():
        adj[u].add(w)
        adj[w].add(u)

    def longest_cycle(X):
        best = 0
        for root in X:
            stack = [(root, (root,))]
            while stack:
                u, path = stack.pop()
                for w in adj[u] & X:
                    if w == root and len(path) >= 3:
                        best = max(best, len(path))
                    elif w > root and w not in path:
                        stack.append((w, path + (w,)))
        return best

    out = []
    for mask in range(1 << len(S.vertices)):
        X = S.ids_of(mask)
        d, k = brute_delta(S, X), len(X)
        if tag == "c0":
            bad = d < 0
        elif tag == "cf":
            bad = d < f(k)
        else:
            bad = (d < 0 or (k < 2 * ngon and longest_cycle(X) > 0)
                   or (d < 2 * ngon + 2 and longest_cycle(X) > 2 * ngon))
        if bad:
            out.append(mask)
    return out


def is_induced_partial(S, pattern, partial):
    """Is ``partial`` an induced embedding of the pattern vertices it maps?
    Part labels are kept, and the pattern instances among those vertices go
    onto exactly the S instances among their images."""
    if pattern.parts and any(pattern.parts[v] != S.parts[w] for v, w in partial.items()):
        return False
    img = set(partial.values())
    mapped = {(name, tuple(sorted(partial[u] for u in tp)))
              for name, tups in pattern.instances.items() for tp in tups
              if all(u in partial for u in tp)}
    return mapped == {(name, tp) for name, tups in S.instances.items() for tp in tups
                      if set(tp) <= img}


def brute_embeddings(S, pattern, partial):
    """Oracle for ``structures._search`` over ascending steps: the set-based
    search it replaced.

    Same placement order (unplaced pattern vertices ascending, candidates
    ascending), with neighbour sets and instance lists in place of bitmasks.
    ``partial`` must be an induced embedding (see :func:`is_induced_partial`).
    """
    def neighbours(T):
        adj = {v: set() for v in T.vertices}
        for tups in T.instances.values():
            for t in tups:
                for a in t:
                    adj[a].update(b for b in t if b != a)
        return adj

    def by_vertex(T):
        idx = {v: [] for v in T.vertices}
        for name, tups in T.instances.items():
            for tp in tups:
                for v in tp:
                    idx[v].append((name, tp))
        return idx

    pat_adj, s_adj = neighbours(pattern), neighbours(S)
    pat_by_vertex, s_index = by_vertex(pattern), by_vertex(S)
    s_instances = {(name, tp) for name, tups in S.instances.items() for tp in tups}
    todo = [v for v in pattern.vertices if v not in partial]

    def new_complete(phi, v):
        return [(name, tuple(sorted(phi[u] for u in tp)))
                for name, tp in pat_by_vertex[v] if all(u in phi for u in tp)]

    def rec(phi, mapped, rest):
        if not rest:
            yield dict(phi)
            return
        v = rest[0]
        used = set(phi.values())
        anchored = [u for u in pat_adj[v] if u in phi]
        if anchored:
            pool = set.intersection(*(s_adj[phi[u]] for u in anchored))
            pool = sorted(pool)
        else:
            pool = S.vertices
        for w in pool:
            if w in used or (pattern.parts and pattern.parts[v] != S.parts[w]):
                continue
            phi[v] = w
            fresh = new_complete(phi, v)
            ok = all(inst in s_instances for inst in fresh)
            mapped_new = mapped | set(fresh)
            if ok:
                # S instances through w inside the image must be mapped
                ok = all(inst in mapped_new for inst in s_index[w]
                         if all(u == w or u in used for u in inst[1]))
            if ok:
                yield from rec(phi, mapped_new, rest[1:])
            del phi[v]

    mapped0 = {(name, tuple(sorted(partial[u] for u in tp)))
               for name, tups in pattern.instances.items() for tp in tups
               if all(u in partial for u in tp)}
    yield from rec(dict(partial), mapped0, todo)


def brute_realized(S, task, base_phi):
    """Oracle for ``builder._realized``: the search without the prefix cut.

    Every induced copy of the extension over the embedded base, in ascending
    placement order, until one has an image that the exact engine finds
    d-closed in S (control-function class) or self-sufficient (otherwise).
    """
    for phi in _search(S, task.ext, base_phi,
                       _ascending_steps(task.ext, task.ext.mask_of(base_phi))):
        image = frozenset(phi.values())
        if is_d_closed(S, image) if task.tag == CF else self_sufficient(S, image)[0]:
            return True
    return False


def brute_build_generic(config):
    """Oracle for ``builder.build_generic``: the re-walk it replaced.

    Every task visit walks the task's good embedded bases from the first
    one, up to ``builder.SCAN_WINDOW`` of them, skips those done before,
    marks the realized ones done, and amalgamates over the first unrealized
    one.  Returns the build log.
    """
    patterns = builder.enumerate_class(
        config.signature, config.tag, config.max_pattern, config.control, config.ngon)
    tasks, skipped = builder.enumerate_tasks(patterns, config.tag)
    S = FiniteStructure(config.signature, [], {},
                        {} if config.signature.mode == "bipartite" else None)
    log = builder.BuildLog(config_key=builder._config_key(config))
    log.skipped_tasks = [str(t.key) for t in skipped]
    done, memo, steps = set(), {}, 0
    while steps < config.budget:
        progressed = False
        for ti, task in enumerate(tasks):
            if steps >= config.budget:
                break
            bases = builder._base_embeddings(S, task, memo)
            for phi in itertools.islice(bases, builder.SCAN_WINDOW):
                key = (ti, tuple(phi[v] for v in sorted(phi)))
                if key in done:
                    continue
                done.add(key)
                if builder._realized(S, task, phi, memo):
                    continue
                S, copy_image = builder._amalgamate(S, task, phi)
                memo[copy_image] = True
                steps += 1
                progressed = True
                log.steps.append({"step": steps, "task": ti, "task_key": str(task.key),
                                  "embedding": sorted(phi.items()), "size": len(S.vertices)})
                break
        if not progressed:
            break
    r = builder._in_class(S, config.tag, config.control, config.ngon)
    assert r.verdict != FAIL, r.witness
    log.structure_dump = dump_structure(S)
    return log


def brute_isomorph_free_types(signature, max_size, keep):
    """Oracle for ``builder._isomorph_free_types``: every one-vertex
    augmentation of every type of the level below is canonicalized, with no
    orbit pruning."""
    empty = FiniteStructure(signature, [], {}, {} if signature.mode == "bipartite" else None)
    level, out = [empty], [empty]
    for size in range(1, max_size + 1):
        seen = {}
        for base in level:
            for cand in _all_augmentations(base, size - 1):
                if keep(cand):
                    seen.setdefault(canonical_form(cand, cap=size), cand)
        level = [seen[k] for k in sorted(seen)]
        out.extend(level)
    return out


def _all_augmentations(base, new_v):
    sig = base.signature
    labels = [None]
    if sig.mode == "bipartite":
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


def brute_enumerate_tasks(patterns, tag):
    """Oracle for ``builder.enumerate_tasks``: every base of every pattern is
    canonicalized, with no orbit pruning."""
    tasks, skipped = {}, {}
    for ext in patterns:
        if not ext.vertices:
            continue
        verts = list(ext.vertices)
        for bsize in range(0, len(verts)):
            for combo in itertools.combinations(verts, bsize):
                base = frozenset(combo)
                if not builder._is_strong(ext, base, tag):
                    continue
                colors = {v: int(v in base) + (2 if ext.parts and ext.parts[v] == LINE else 0)
                          for v in verts}
                key = canonical_form(ext, cap=len(verts), colors=colors)
                task = builder.ExtensionTask(ext, base, tag, key)
                if tag == builder.KN and not is_d_closed(ext, base):
                    skipped.setdefault(key, task)
                    continue
                tasks.setdefault(key, task)
    return tuple(
        sorted(d.values(), key=lambda t: (len(t.base_ids), len(t.ext.vertices), t.key))
        for d in (tasks, skipped)
    )


def brute_isomorphic(a, b):
    """Independent isomorphism oracle by raw permutation search."""
    if len(a.vertices) != len(b.vertices) or a.signature != b.signature:
        return False
    av, bv = list(a.vertices), list(b.vertices)
    a_inst = {name: set(tups) for name, tups in a.instances.items()}
    for perm in itertools.permutations(bv):
        phi = dict(zip(av, perm))
        if a.parts and any(a.parts[v] != b.parts[phi[v]] for v in av):
            continue
        ok = True
        for name, tups in a.instances.items():
            mapped = {tuple(sorted(phi[v] for v in t)) for t in tups}
            if mapped != set(b.instances[name]):
                ok = False
                break
        if ok:
            return True
    return False


# -- loop forms of the array passes in the exhaustive suites ---------------------


def brute_cld_from_table(dt, mask):
    """Oracle d-closure off a dim table: one bit at a time, outside the mask."""
    base = dt[mask]
    out = mask
    for i in range(len(dt).bit_length() - 1):
        bit = 1 << i
        if not mask & bit and dt[mask | bit] == base:
            out |= bit
    return out


def brute_d_closed_masks(dt, size_cap=None):
    """Oracle list of the d-closed masks (size-capped), ascending."""
    return [
        m for m in range(len(dt))
        if (size_cap is None or m.bit_count() <= size_cap)
        and brute_cld_from_table(dt, m) == m
    ]


def brute_free_split(S, u, v, b):
    """Oracle for ``independence.lemma43_free_split`` on int masks."""
    if u & v != b:
        return False
    union, uu, vv = u | v, u & ~b, v & ~b
    return not any(
        im & ~union == 0 and im & uu and im & vv for im, _ in S.bit_index().weighted
    )


def brute_lemma43_equivalence(S, dt, dtab, size_cap):
    """Oracle for ``independence._lemma43_equivalence_exhaustive``: the triple loop
    over (A, C, B), on the given dim and delta tables."""
    closed = brute_d_closed_masks(dt, size_cap)
    checked = 0
    for amask in closed:
        for cmask in closed:
            inter = amask & cmask
            for bmask in closed:
                if bmask & ~inter:
                    continue
                checked += 1
                indep = (
                    dt[amask | bmask | cmask] + dt[bmask]
                    == dt[amask | bmask] + dt[bmask | cmask]
                )
                u = brute_cld_from_table(dt, amask | bmask)
                v = brute_cld_from_table(dt, bmask | cmask)
                cond = brute_free_split(S, u, v, bmask) and dt[u | v] == dtab[u | v]
                if indep != cond:
                    return checked, (amask, bmask, cmask, indep, cond)
    return checked, None


def brute_axiom_suite(S, dt, size_cap):
    """Oracle for the compatibility clause of ``independence.axiom_suite``:
    the per-(A, B) loop.  Returns the first (a, b, c, label) or None."""
    n = len(S.vertices)
    cvec = np.array(brute_d_closed_masks(dt, size_cap), dtype=np.int64)

    def ind(a, b, c):
        return dt[a | b | c] + dt[b] == dt[a | b] + dt[b | c]

    for a in map(int, cvec):
        for b in (m for m in range(1 << n) if m.bit_count() <= size_cap):
            bcl = brute_cld_from_table(dt, b)
            acl = brute_cld_from_table(dt, a | b)
            base = ind(a, b, cvec)
            checks = (
                ("closed base", base != ind(a, bcl, cvec)),
                ("closure of a over base", base != ind(acl, b, cvec)),
            )
            for label, bad in checks:
                if bad.any():
                    return a, b, int(cvec[np.argmax(bad)]), label
            elementwise = np.ones(len(cvec), dtype=bool)
            for i in range(n):
                if acl & (1 << i):
                    elementwise &= ind(1 << i, b, cvec)
            bad = base & ~elementwise
            if bad.any():
                return (a, b, int(cvec[np.argmax(bad)]),
                        "joint independence must pass to closure elements")
    return None


def brute_axiom_quadruples(dt, size_cap):
    """Oracle for the monotonicity and transitivity clauses of
    ``independence.axiom_suite``: the per-quadruple loop.  Returns the first
    failing (a, b, c, d) of each, or None, from the first A where either fails."""
    closed = brute_d_closed_masks(dt, size_cap)
    t = dt.tolist()
    mono = trans = None
    for a in closed:
        for b in closed:
            for c in closed:
                for d in closed:
                    i_b_cd = t[a | b | c | d] - t[b | c | d] == t[a | b] - t[b]
                    i_b_c = t[a | b | c] - t[b | c] == t[a | b] - t[b]
                    i_bc_d = t[a | b | c | d] - t[b | c | d] == t[a | b | c] - t[b | c]
                    if mono is None and i_b_cd and not (i_b_c and i_bc_d):
                        mono = (a, b, c, d)
                    if trans is None and i_b_c and i_bc_d and not i_b_cd:
                        trans = (a, b, c, d)
        if mono or trans:
            break
    return mono, trans


def brute_monotone_submodular(dt):
    """Oracle for ``independence._monotone_submodular``: every mask X and
    points i, j outside it, one step at a time."""
    t = dt.tolist()
    n = len(t).bit_length() - 1
    for x in range(len(t)):
        out = [1 << i for i in range(n) if not x >> i & 1]
        for i in out:
            if t[x] > t[x | i]:
                return False
            for j in out:
                if j != i and t[x | i] - t[x] < t[x | i | j] - t[x | j]:
                    return False
    return True


def brute_restriction(SS):
    """First (a, b, x) where the strong-subset relation ``SS`` fails to
    restrict: SS[a, b], x inside b and not SS[a & x, x]; per (a, b), every
    x in b."""
    masks = np.arange(len(SS))
    for amask in range(len(SS)):
        for bmask in np.nonzero(SS[amask])[0]:
            xs = masks[(masks & bmask) == masks]
            ok = SS[amask & xs, xs]
            if not ok.all():
                return amask, int(bmask), int(xs[np.argmin(ok)])
    return None


def brute_submodularity(dt):
    """Oracle for the submodularity check of the submodularity suite: the
    first pair (i, j), row-major, with delta(i|j) + delta(i&j) > delta(i) + delta(j)."""
    t = dt.tolist()
    for i in range(len(t)):
        for j in range(len(t)):
            if t[i | j] + t[i & j] > t[i] + t[j]:
                return i, j
    return None


def brute_strong_pairs(dt):
    """Oracle SS[a, b]: a inside b, and no set between them has delta below
    delta(a); every y between is a with a submask of b - a."""
    t = dt.tolist()
    SS = np.zeros((len(t), len(t)), dtype=bool)
    for b in range(len(t)):
        for a in range(b + 1):
            if a & b != a:
                continue
            rest, y, ok = b & ~a, b & ~a, True
            while ok:
                ok = t[a | y] >= t[a]
                if not y:
                    break
                y = (y - 1) & rest
            SS[a, b] = ok
    return SS


def brute_transitivity(SS):
    """First (a, c), row-major, where the strong-subset relation ``SS`` is
    not transitive: SS[a, b] and SS[b, c] for some b but not SS[a, c]."""
    rows = SS.tolist()
    size = len(rows)
    for a in range(size):
        for c in range(size):
            if not rows[a][c] and any(rows[a][b] and rows[b][c] for b in range(size)):
                return a, c
    return None


def brute_proper_parts(S, xmask, free):
    """Oracle for the "proper-parts" and "intermediate" clauses of
    ``gadgets.verify_gadget``: the loops over U, the x-part and W inside U.

    Returns the proper-parts witness (U, violating set) and the intermediate
    witness (X plus a part of the free set), each as masks or None.
    """
    frees = [m for m in range(free + 1) if m & free == m]
    parts = [m for m in range(xmask) if m & xmask == m]  # proper: not X itself
    proper = None
    for u in frees:
        for p in parts:
            base = brute_delta(S, S.ids_of(p))
            w = next((w for w in frees if w & u == w
                      and brute_delta(S, S.ids_of(p | w)) < base), None)
            if w is not None:
                proper = (p | u, p | w)
                break
        if proper:
            break
    base_x = brute_delta(S, S.ids_of(xmask))
    intermediate = next((xmask | w for w in frees if w != free
                         and brute_delta(S, S.ids_of(xmask | w)) < base_x), None)
    return proper, intermediate


def brute_beatty_window_checks(seq, ell, b):
    """Oracle for ``suites._beatty_window_checks``: the loop form it replaced."""
    vals = {i: seq.value(i) for i in range(-b, 4 * b + 1)}
    for i in range(-b, 3 * b):
        if vals[i] != seq.value(i + b):
            return f"period broken at i={i}"
    pref = {-b: 0}
    for i in range(-b + 1, 4 * b + 1):
        pref[i] = pref[i - 1] + vals[i]
    for i in range(-b, b + 1):
        if pref[i + b] - pref[i] != ell:
            return f"window sum at i={i} is {pref[i + b] - pref[i]}"
        for s in range(1, 3 * b + 1):
            if (pref[i + s] - pref[i] - 1) * b > s * ell:
                return f"density bound broken at i={i}, s={s}"
    return None


def _co_instance_neighbours(S):
    adj = {v: set() for v in S.vertices}
    for tups in S.instances.values():
        for tp in tups:
            for a in tp:
                adj[a].update(b for b in tp if b != a)
    return adj


def brute_count_msa_copies(S, A, t):
    """Oracle for ``extensions.count_msa_copies``: the set-based search it
    replaced, returning (copies, disjoint over A).

    Base vertices range over A, new vertices over the rest of S, anchored
    vertices over the common neighbours of their placed neighbours' images.
    A full map counts when its image is an induced copy of the pattern and
    every instance of S inside A and the new points that meets them is an
    image of a pattern instance.
    """
    a_set = frozenset(A)
    ext, base = sorted(t.new_points), sorted(t.base)
    adj_pat, s_adj = _co_instance_neighbours(t.pattern), _co_instance_neighbours(S)
    outside = [v for v in S.vertices if v not in a_set]
    copies = set()

    def exact(phi):
        ext_img = frozenset(phi[v] for v in ext)
        mapped = {(name, tuple(sorted(phi[v] for v in tp)))
                  for name, tups in t.pattern.instances.items() for tp in tups}
        for name, tups in S.instances.items():
            for tp in tups:
                if set(tp) & ext_img and set(tp) <= a_set | ext_img and (name, tp) not in mapped:
                    return False
        if any(tp not in S.instances[name] for name, tp in mapped):
            return False
        back = {phi[v]: v for v in base}
        return S.induced(back).relabel(back) == t.pattern.induced(t.base)

    def extend(phi, todo):
        if not todo:
            if exact(phi):
                copies.add(frozenset(phi[v] for v in ext))
            return
        v = todo[0]
        pool = sorted(a_set) if v in t.base else outside
        for u in adj_pat[v]:
            if u in phi:
                pool = [w for w in pool if w in s_adj[phi[u]]]
        for w in pool:
            if w not in phi.values():
                phi[v] = w
                extend(phi, todo[1:])
                del phi[v]

    extend({}, base + ext)
    copies_t = tuple(sorted(copies, key=sorted))
    disjoint = True
    for w1, w2 in itertools.combinations(copies_t, 2):
        scope = a_set | w1 | w2
        if w1 & w2 or any(set(tp) <= scope and set(tp) & w1 and set(tp) & w2
                          for tups in S.instances.values() for tp in tups):
            disjoint = False
    return copies_t, disjoint


def brute_enumerate_msa_pairs(S, max_new=None, straddle=None):
    """Oracle for ``extensions.enumerate_msa_pairs``: the loop form, with its
    own weighted instance list, in the same yield order."""
    n = len(S.vertices)
    weights = {rel.name: rel.weight for rel in S.signature.relations}
    inst_masks = [S.mask_of(tp) for name, tups in S.instances.items()
                  for tp in tups if weights[name]]
    dtab = [brute_delta(S, S.ids_of(m)) for m in range(1 << n)]
    if straddle:
        p_mask, q_mask = S.mask_of(straddle[0]), S.mask_of(straddle[1])
        shared = p_mask & q_mask
    for wmask in range(1, 1 << n):
        wbits = [i for i in range(n) if wmask >> i & 1]
        if max_new is not None and len(wbits) > max_new:
            continue
        touch = 0
        for im in inst_masks:
            if im & wmask:
                touch |= im & ~wmask
        if straddle and not (touch & p_mask & ~shared and touch & q_mask & ~shared):
            continue
        touch_bits = [i for i in range(n) if touch >> i & 1]
        for zsel in range(1 << len(touch_bits)):
            zmask = sum(1 << touch_bits[k] for k in range(len(touch_bits)) if zsel >> k & 1)
            if straddle and not (zmask & p_mask & ~shared and zmask & q_mask & ~shared):
                continue
            whole = zmask | wmask
            if dtab[whole] != dtab[zmask]:
                continue
            touched = 0
            for im in inst_masks:
                if im & wmask and im & whole == im:
                    touched |= im & zmask
            if touched != zmask:
                continue
            if all(dtab[whole] < dtab[zmask | sum(1 << wbits[k] for k in range(len(wbits))
                                                  if sub >> k & 1)]
                   for sub in range(1, (1 << len(wbits)) - 1)):
                yield S.ids_of(zmask), S.ids_of(wmask)


def brute_refine_colors(S, colors0=None):
    """Oracle for ``structures._refine_colors``: each round rescans every
    instance for every vertex."""
    n = len(S.vertices)
    if colors0 is not None:
        colors = [colors0.get(v, 0) for v in S.vertices]
    elif S.parts:
        colors = [0 if S.parts[v] == "point" else 1 for v in S.vertices]
    else:
        colors = [0] * n
    pos = {v: i for i, v in enumerate(S.vertices)}
    idx_tuples = [(rel.name, tuple(pos[v] for v in tup))
                  for rel in S.signature.relations for tup in S.instances[rel.name]]
    for _ in range(n):
        sigs = []
        for i in range(n):
            neigh = [(name, tuple(sorted(colors[j] for j in tup if j != i)))
                     for name, tup in idx_tuples if i in tup]
            sigs.append((colors[i], tuple(sorted(neigh))))
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _encode_under(S, order, colors0=None):
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


def brute_canonical_form(S, colors=None):
    """Oracle for ``structures.canonical_form``: the least encoding over the
    whole product of the permutations of the refined color classes."""
    n = len(S.vertices)
    if n == 0:
        return _encode_under(S, (), colors)
    refined = brute_refine_colors(S, colors)
    classes = {}
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


def brute_girth(S):
    """Oracle for ``classes.girth``: BFS from every vertex over adjacency sets
    pooled from the arity-2 relations."""
    adj = {v: set() for v in S.vertices}
    for rel in S.signature.relations:
        if rel.arity == 2:
            for a, b in S.instances[rel.name]:
                adj[a].add(b)
                adj[b].add(a)
    best = float("inf")
    for root in S.vertices:
        dist, parent = {root: 0}, {root: None}
        queue = [root]
        for u in queue:
            if dist[u] * 2 >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    best = min(best, dist[u] + dist[w] + 1)
    return best
