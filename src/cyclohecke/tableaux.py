r"""
Multipartitions, standard tableaux, contents, residues and degrees.

An $r$-multipartition of $n$ is a tuple of $r$ partitions with total size
$n$, written as nested tuples.  Nodes are triples ``(l, a, c)`` (component,
row, column, all 1-based); a node is *below* another when its component is
larger, or equal with a larger row index.

A standard tableau is stored as a tuple of components, each a tuple of rows
of entries; entries increase along rows and columns and exhaust $1..n$.
``t_row(shape)`` fills rows left to right through the components in order;
``t_col(shape)`` fills columns top to bottom through the components in
reverse order.  Every standard tableau ``t`` satisfies
``t_row(shape) >= t >= t_col(shape)`` in the dominance order.

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


def conjugate_partition(lam):
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= k) for k in range(1, lam[0] + 1))


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


def conjugate_multipartition(lam):
    return tuple(conjugate_partition(c) for c in reversed(lam))


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


def addable_nodes(lam):
    out = []
    for l, comp in enumerate(lam, start=1):
        for a in range(1, len(comp) + 2):
            c = (comp[a - 1] + 1) if a <= len(comp) else 1
            if a == 1 or c <= comp[a - 2]:
                out.append((l, a, c))
    return out


def removable_nodes(lam):
    out = []
    for l, comp in enumerate(lam, start=1):
        for a, row in enumerate(comp, start=1):
            if a == len(comp) or comp[a] < row:
                out.append((l, a, row))
    return out


def add_node(lam, node):
    l, a, c = node
    comp = list(lam[l - 1])
    if a == len(comp) + 1:
        comp.append(1)
    else:
        comp[a - 1] += 1
    return lam[: l - 1] + (tuple(comp),) + lam[l:]


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


def t_col(shape):
    """Column-reading tableau: fill columns of the last component first."""
    assign = {}
    k = 1
    for l in range(len(shape), 0, -1):
        comp = shape[l - 1]
        width = comp[0] if comp else 0
        conj = conjugate_partition(comp)
        for c in range(1, width + 1):
            for a in range(1, conj[c - 1] + 1):
                assign[(l, a, c)] = k
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


def d_perm_col(t):
    """The permutation with t_col(shape) . d'(t) = t."""
    base = t_col(t.shape)
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


# -- contents, residues, degrees ---------------------------------------------

def content(t, k, xi, Q):
    """xi^{c-a} Q_l for the node of entry k."""
    l, a, c = t.node_of(k)
    val = Q[l - 1]
    d = c - a
    if d >= 0:
        for _ in range(d):
            val = val * xi
    else:
        inv = _inv(xi)
        for _ in range(-d):
            val = val * inv
    return val


def _inv(x):
    from .rings import Laurent
    if isinstance(x, Laurent):
        return x.inverse_unit()
    return 1 / x


def content_vector(t, xi, Q):
    return tuple(content(t, k, xi, Q) for k in range(1, t.size + 1))


def content_sets(r, n, xi, Q):
    """C(k) = all possible contents of entry k over all shapes and tableaux."""
    sets = [[] for _ in range(n)]
    for shape in enumerate_multipartitions(r, n):
        for t in standard_tableaux(shape):
            for k in range(1, n + 1):
                val = content(t, k, xi, Q)
                if val not in sets[k - 1]:
                    sets[k - 1].append(val)
    return [tuple(s) for s in sets]


def node_residue(node, e, kappa):
    l, a, c = node
    res = kappa[l - 1] + c - a
    return res % e if e else res


def residue(t, k, e, kappa):
    return node_residue(t.node_of(k), e, kappa)


def residue_sequence(t, e, kappa):
    return tuple(residue(t, k, e, kappa) for k in range(1, t.size + 1))


def degree_da(shape, node, e, kappa):
    """# addable i-nodes strictly below minus # removable i-nodes strictly
    below, where i is the residue of the given (addable or removable) node."""
    i = node_residue(node, e, kappa)
    add = sum(
        1 for nd in addable_nodes(shape)
        if node_below(nd, node) and node_residue(nd, e, kappa) == i
    )
    rem = sum(
        1 for nd in removable_nodes(shape)
        if node_below(nd, node) and node_residue(nd, e, kappa) == i
    )
    return add - rem


def tableau_degree(t, e, kappa):
    """deg t, by peeling the largest entry."""
    deg = 0
    cur = t
    for m in range(t.size, 0, -1):
        node = cur.node_of(m)
        below = cur.restrict(m - 1)
        deg += degree_da(below.shape, node, e, kappa)
        cur = below
    return deg


def y_exponents(shape, e, kappa):
    """The exponents (d_1..d_n) attached to the row-reading tableau."""
    t = t_row(shape)
    out = []
    for m in range(1, multipartition_size(shape) + 1):
        node = t.node_of(m)
        out.append(degree_da(t.restrict(m).shape, node, e, kappa))
    return tuple(out)
