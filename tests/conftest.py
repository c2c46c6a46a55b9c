import itertools

from hypothesis import strategies as st

from predimlab import FiniteStructure, graph_signature, hypergraph_signature


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
