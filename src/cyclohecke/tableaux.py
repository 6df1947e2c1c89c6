r"""
Multipartitions, standard tableaux, contents and residues.

An $r$-multipartition of $n$ is a tuple of $r$ partitions with total size
$n$, written as nested tuples.  Nodes are triples ``(l, a, c)`` (component,
row, column, all 1-based); a node is *below* another when its component is
larger, or equal with a larger row index.

A standard tableau is stored as a tuple of components, each a tuple of rows
of entries; entries increase along rows and columns and exhaust $1..n$.
``t_row(shape)`` fills rows left to right through the components in order;
every standard tableau ``t`` satisfies ``t <= t_row(shape)`` in the
dominance order.

Contents are $\xi^{c-a} Q_l$ for the node $(l,a,c)$; residues are
$\kappa_l + c - a$ modulo $e$ (plain integers when $e = 0$).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


# -- partitions ---------------------------------------------------------------

@lru_cache(maxsize=None)
def partitions(n, cap=None):
    """All partitions of n with parts bounded by cap, largest part first."""
    cap = n if cap is None else min(cap, n)
    if n == 0:
        return ((),)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def enumerate_multipartitions(r, n):
    """All r-multipartitions of n, in a fixed deterministic order."""
    if r < 1 or n < 0:
        raise ValueError("need r >= 1, n >= 0")
    return _multipartitions(r, n)


def _multipartitions(r, n):
    # a module-level recursion: an inner function calling itself through its
    # closure would leave a reference cycle behind on every call
    if r == 1:
        return [(lam,) for lam in partitions(n)]
    return [(lam,) + rest
            for size in range(n, -1, -1)
            for lam in partitions(size)
            for rest in _multipartitions(r - 1, n - size)]


def multipartition_size(lam):
    return sum(sum(c) for c in lam)


def dominance_leq(mu, lam):
    """mu <= lam in the dominance order on r-multipartitions."""
    if multipartition_size(mu) != multipartition_size(lam):
        raise ValueError("dominance compares multipartitions of equal size")
    prefix_l = prefix_m = 0
    for comp_l, comp_m in zip(lam, mu):
        rows = max(len(comp_l), len(comp_m))
        run_l, run_m = prefix_l, prefix_m
        for i in range(rows):
            run_l += comp_l[i] if i < len(comp_l) else 0
            run_m += comp_m[i] if i < len(comp_m) else 0
            if run_l < run_m:
                return False
        prefix_l += sum(comp_l)
        prefix_m += sum(comp_m)
    return True


def nodes(lam):
    """All nodes of the diagram, reading order."""
    return [
        (l + 1, a + 1, c + 1)
        for l, comp in enumerate(lam)
        for a, row in enumerate(comp)
        for c in range(row)
    ]


def node_below(x, y):
    """x strictly below y: larger component, or same component and larger row."""
    return x[0] > y[0] or (x[0] == y[0] and x[1] > y[1])


def removable_nodes(lam):
    out = []
    for l, comp in enumerate(lam, start=1):
        for a, row in enumerate(comp, start=1):
            if a == len(comp) or comp[a] < row:
                out.append((l, a, row))
    return out


def remove_node(lam, node):
    l, a, c = node
    comp = list(lam[l - 1])
    comp[a - 1] -= 1
    if comp[a - 1] == 0:
        comp.pop()
    return lam[: l - 1] + (tuple(comp),) + lam[l:]


# -- standard tableaux --------------------------------------------------------

@dataclass(frozen=True)
class StdTableau:
    shape: tuple
    rows: tuple      # rows[l][a][c] entries, 0-based indexing into 1-based data

    def entry(self, node):
        l, a, c = node
        return self.rows[l - 1][a - 1][c - 1]

    def node_of(self, k):
        for l, comp in enumerate(self.rows, start=1):
            for a, row in enumerate(comp, start=1):
                for c, v in enumerate(row, start=1):
                    if v == k:
                        return (l, a, c)
        raise KeyError(k)

    @property
    def size(self):
        return sum(sum(len(row) for row in comp) for comp in self.rows)

    def restrict(self, m):
        """Subtableau on entries 1..m."""
        rows = tuple(
            tuple(tuple(v for v in row if v <= m) for row in comp if row and row[0] <= m)
            for comp in self.rows
        )
        shape = tuple(tuple(len(row) for row in comp) for comp in rows)
        return StdTableau(shape, rows)

    def word(self):
        """Entries in reading order of the shape."""
        return tuple(self.entry(nd) for nd in nodes(self.shape))

    def to_json(self):
        return [[list(row) for row in comp] for comp in self.rows]


def _tableau_from_entries(shape, assign):
    rows = tuple(
        tuple(
            tuple(assign[(l + 1, a + 1, c + 1)] for c in range(row))
            for a, row in enumerate(comp)
        )
        for l, comp in enumerate(shape)
    )
    return StdTableau(shape, rows)


def t_row(shape):
    """Row-reading superstandard tableau: fill rows through components."""
    assign = {}
    k = 1
    for nd in nodes(shape):
        assign[nd] = k
        k += 1
    return _tableau_from_entries(shape, assign)


def standard_tableaux(shape):
    """All standard tableaux of the given shape, deterministic order."""
    # partial fillings (remaining shape, {node: entry}), peeling entries n..1
    # off removable nodes
    partial = [(shape, {})]
    for m in range(multipartition_size(shape), 0, -1):
        partial = [(remove_node(cur, nd), {**assign, nd: m})
                   for cur, assign in partial for nd in removable_nodes(cur)]
    out = [_tableau_from_entries(shape, assign) for _, assign in partial]
    out.sort(key=lambda t: t.word())
    return out


def d_perm(t):
    """The permutation with t = t_row(shape) . d(t), acting on entries."""
    base = t_row(t.shape)
    n = t.size
    img = [0] * n
    for nd in nodes(t.shape):
        img[base.entry(nd) - 1] = t.entry(nd)
    return tuple(img)


def tableau_dominance_leq(s, t):
    """s <= t when every restriction shape of s is dominated by t's."""
    if s.shape != t.shape:
        raise ValueError("dominance compares tableaux of the same shape")
    n = s.size
    for m in range(1, n + 1):
        if not dominance_leq(s.restrict(m).shape, t.restrict(m).shape):
            return False
    return True


def pair_dominance_lt(uv, st):
    """(u,v) strictly dominates (s,t): the cellular two-case order."""
    u, v = uv
    s, t = st
    if u.shape == s.shape:
        return (u, v) != (s, t) and tableau_dominance_leq(s, u) \
            and tableau_dominance_leq(t, v)
    return dominance_leq(s.shape, u.shape)


# -- contents and residues ---------------------------------------------------

def content(t, k, xi, Q):
    """xi^{c-a} Q_l for the node of entry k."""
    l, a, c = t.node_of(k)
    # on the diagonal no product with the unit
    return Q[l - 1] * xi ** (c - a) if c != a else Q[l - 1]


def content_vector(t, xi, Q):
    return tuple(content(t, k, xi, Q) for k in range(1, t.size + 1))


def content_sets(r, n, xi, Q):
    """C(k) = all possible contents of entry k over all shapes and tableaux."""
    sets = [[] for _ in range(n)]
    for shape in enumerate_multipartitions(r, n):
        for t in standard_tableaux(shape):
            for k, val in enumerate(content_vector(t, xi, Q)):
                if val not in sets[k]:
                    sets[k].append(val)
    return [tuple(s) for s in sets]


def node_residue(node, e, kappa):
    l, a, c = node
    res = kappa[l - 1] + c - a
    return res % e if e else res


def residue(t, k, e, kappa):
    return node_residue(t.node_of(k), e, kappa)


def residue_sequence(t, e, kappa):
    return tuple(residue(t, k, e, kappa) for k in range(1, t.size + 1))
