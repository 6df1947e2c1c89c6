r"""
The cyclotomic Hecke algebra of $G(r,1,n)$ on its Ariki-Koike basis.

Generators $T_0, T_1, \dots, T_{n-1}$ over a commutative ring with units
$\xi, Q_1, \dots, Q_r$, subject to

    (T_0 - Q_1) .. (T_0 - Q_r) = 0,        T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0,
    (T_i - xi)(T_i + 1) = 0,               braid and commutation relations.

Jucys-Murphy elements: $\mathcal{L}_m = \xi^{1-m} T_{m-1} \cdots T_1 T_0
T_1 \cdots T_{m-1}$, so $\mathcal{L}_1 = T_0$.  Elements are stored as sparse
maps on the Ariki-Koike basis $\{\mathcal{L}^c T_w\}$ with $0 \le c_i < r$
and $w \in \mathfrak{S}_n$; multiplication is division-free straightening.

A basis element is named by its position, an ``int``: the place of its
label $(c, w)$ in the sorted order of the labels, colors first, so the
identity is position 0.  ``HeckeElement.terms``, the cached tables and the
commutator vectors of the center module are keyed by position, because a
dict operation on an ``int`` costs a fraction of one on a nested tuple.
``AlgebraContext.index_label`` and ``position`` convert; the numbering is
built on first use.  A label is read only where the structure is: a
straightening rule decodes a position to build a table entry and encodes
its results before they are cached, and a product decodes each term of
its left factor.  JSON and ``repr`` print labels, in position order.

The straightening rules, writing $L = \mathcal{L}_i$, $M = \mathcal{L}_{i+1}$:

    T_i L^a M^b = (swap of exponents) T_i  +  corrections:
      b > a:  +(xi-1) * L^{a+p} M^{b-p},      p = 0 .. b-a-1,
      a > b:  -(xi-1) * L^{b+q} M^{a-q},      q = 0 .. a-b-1,

which keeps every exponent below max(a, b); together with the cyclotomic
reduction of $\mathcal{L}_1^r = e_1(Q)\mathcal{L}_1^{r-1} - e_2(Q)
\mathcal{L}_1^{r-2} + \cdots$ this makes multiplication by a generator on
the left overflow-free.  Right multiplication by $T_i$, $i \ge 1$, acts on
$T_w$ alone.  Right multiplication by $T_0$ goes through the
anti-involution $*$ that fixes every generator and reverses products (it is
well defined because each defining relation reads the same reversed):

    x T_0 = (T_0 x^*)^*,        (L^c T_w)^* = T_{w^{-1}} L^c,

using $\mathcal{L}_m^* = \mathcal{L}_m$ (its word is a palindrome) and
that the $\mathcal{L}_m$ commute.  Each index star is one left generator
action on a shorter cached star: for a right descent $s$ of $w$,
$T_w = T_{ws} T_s$, so

    (L^c T_w)^* = T_s (L^c T_{ws})^*,

and the right action of $T_0$ is a sequence of left actions and stays
division-free.

The generator actions on basis positions and the index stars are cached as
tables over the straightening constants $1$, $\xi$, $\xi - 1$ and the
signed $e_j(Q)$.  Over $\mathbb{Q}$ an integral constant is a Python
``int``, so those tables (and the commutator vectors of the center module)
are built in integer arithmetic; an element's coefficients stay
``Fraction``s, because every use of a table multiplies it by one.

The left action of $\mathcal{L}_m$, $m \ge 2$, is in the same table, as
token $-m$ (the token $-1$ reads the $T_0$ entries, since $\mathcal{L}_1 =
T_0$): the $\mathcal{L}_k$ commute, so $\mathcal{L}_m \mathcal{L}^c T_w =
\mathcal{L}^{c + e_m} T_w$ while $c_m + 1 < r$, and only at $c_m = r - 1$
(always when $r = 1$) is it the palindromic word, $2m - 1$ generator
actions.  A product walks each term $\mathcal{L}^c T_w$ of the left factor
over the right factor by left actions, the letters of $T_w$ from the right,
then each $\mathcal{L}_m$; a right factor with fewer terms is walked as
$ab = (b^* a^*)^*$.  :func:`jm_polynomial` is Horner's rule on the action.

A second basis $\{T_w : w \in W_n\}$, one fixed reduced word per group
element, is available through :func:`t_element`; two reduced words of the
same element give products that differ only by shorter non-Coxeter terms,
so the collection is again a basis.
"""

from __future__ import annotations

import itertools
from functools import cached_property, wraps

from .group import (
    GroupParams,
    bm_word,
    coxeter_word,
    perm_compose,
    perm_identity,
    perm_transposition,
)
from .rings import RATIONAL_KINDS, elementary_symmetric, invert_unit


class HeckeError(ValueError):
    pass


def memo(method):
    """Memoise a method per instance, keyed by its positional arguments.  The
    table lives in the instance's ``__dict__``, so it is freed with the
    instance; ``functools.cache`` would keep every instance alive."""
    slot = f"_memo_{method.__qualname__}"

    @wraps(method)
    def cached(self, *args):
        try:
            return self.__dict__[slot][args]
        except KeyError:
            pass
        value = self.__dict__.setdefault(slot, {})[args] = method(self, *args)
        return value

    return cached


class AlgebraContext:
    """Immutable bundle of (r, n), coefficient ring and parameters."""

    def __init__(self, params, ring, xi, qs):
        if not isinstance(params, GroupParams):
            params = GroupParams(*params)
        qs = tuple(qs)
        if len(qs) != params.r:
            raise HeckeError("need one cyclotomic parameter per color")
        ring.check(xi)
        for q in qs:
            ring.check(q)
        if ring.is_zero(xi) or any(ring.is_zero(q) for q in qs):
            raise HeckeError("Hecke and cyclotomic parameters must be units")
        self.params = params
        self.ring = ring
        self.xi = xi
        self.qs = qs
        self.xi_inv = invert_unit(xi)
        # the straightening constants, held as the tables hold them; the
        # signed elementary symmetric functions drive the cyclotomic reduction
        one = ring.one()
        self.t_one = _table_constant(ring, one)
        self.t_xi = _table_constant(ring, xi)
        self.xi_m1 = _table_constant(ring, xi - one)
        self.cyc_coeffs = []
        for j in range(1, params.r + 1):
            ej = elementary_symmetric(list(qs), j, one)
            self.cyc_coeffs.append(_table_constant(ring, ej if j % 2 else -ej))
        # generator actions, {token: {position: ((position, coeff), ..)}}
        self._rmul = {}
        self._lmul = {}
        # terms dicts keyed by position, not HeckeElements: an element refers
        # back to its context, and that cycle would keep a dropped context
        # alive until the next full garbage collection
        self._star = {}
        self._t_cache = {}

    # -- bookkeeping --------------------------------------------------------

    @property
    def dimension(self):
        return self.params.order

    def identity_index(self):
        return 0

    def basis_indices(self):
        """The basis positions 0 .. dim-1; position i is L^c T_w for (c, w) =
        ``index_label(i)``, the colors varying slowest."""
        return range(self.dimension)

    @cached_property
    def _labels(self):
        """(c, w) at every position: colors in lexicographic order, and for
        each the permutations in sorted order, so that positions sort as
        their labels do."""
        n, r = self.params.n, self.params.r
        perms = sorted(itertools.permutations(range(1, n + 1)))
        return tuple((c, w) for c in itertools.product(range(r), repeat=n)
                     for w in perms)

    @cached_property
    def _positions(self):
        return {label: i for i, label in enumerate(self._labels)}

    def index_label(self, idx):
        """The label (c, w) of the basis element L^c T_w at position idx."""
        labels = self._labels
        if not 0 <= idx < len(labels):
            raise HeckeError(f"basis position {idx} out of range")
        return labels[idx]

    def position(self, label):
        """The position of the basis element L^c T_w with label (c, w)."""
        pos = self._positions.get(label)
        if pos is None:
            raise HeckeError(f"{label!r} labels no basis element")
        return pos

    def zero(self):
        return HeckeElement(self, {})

    def one(self):
        return HeckeElement(self, {self.identity_index(): self.ring.one()})

    def from_index(self, idx, coeff=None):
        return HeckeElement(self, {idx: self.ring.one() if coeff is None else coeff})

    def generator(self, token):
        """T_0 for token 0, T_i for token i."""
        n, r = self.params.n, self.params.r
        if token == 0:
            if r == 1:
                return self.one().scale(self.qs[0])
            c = (1,) + (0,) * (n - 1)
            return self.from_index(self.position((c, perm_identity(n))))
        if not 1 <= token <= n - 1:
            raise HeckeError(f"generator index {token} out of range")
        return self.from_index(
            self.position(((0,) * n, perm_transposition(n, token))))

    def jm(self, m):
        """The m-th Jucys-Murphy element."""
        if not 1 <= m <= self.params.n:
            raise HeckeError(f"Jucys-Murphy index {m} out of range")
        return HeckeElement(self, _terms_lmul(self, -m, self.one().terms))

    def jm_all(self):
        return [self.jm(m) for m in range(1, self.params.n + 1)]


def _table_constant(ring, value):
    """A straightening constant as the tables hold it: over Q an int when
    it is integral, else the ring value itself."""
    if ring.kind in RATIONAL_KINDS and value.denominator == 1:
        return value.numerator
    return value


# -- index-level straightening ------------------------------------------------
#
# The rules act on labels (c, w); the tables cache their results by basis
# position, and a position is decoded only to build a table entry.

def _lmul_t0_label(ctx, c, w):
    """L_1 * (L^c T_w) as ((coeff, label), ..)."""
    r = ctx.params.r
    if c[0] + 1 < r:
        return ((ctx.t_one, ((c[0] + 1,) + c[1:], w)),)
    return tuple((coeff, ((r - j,) + c[1:], w))
                 for j, coeff in enumerate(ctx.cyc_coeffs, start=1))


def _left_coxeter(ctx, i, w):
    """T_i * T_w as [(coeff, perm)]."""
    sw = perm_compose(perm_transposition(ctx.params.n, i), w)
    # ascent iff i appears before i+1 in the one-line word of w^{-1}
    wi = w.index(i)
    wi1 = w.index(i + 1)
    if wi < wi1:
        return ((ctx.t_one, sw),)
    return ((ctx.xi_m1, w), (ctx.t_xi, sw))


def _lmul_ti_label(ctx, i, c, w):
    """T_i * (L^c T_w) as ((coeff, label), ..)."""
    a, b = c[i - 1], c[i]
    swapped = list(c)
    swapped[i - 1], swapped[i] = b, a
    swapped = tuple(swapped)
    out = []
    for coeff, perm in _left_coxeter(ctx, i, w):
        out.append((coeff, (swapped, perm)))
    if b > a:
        for p in range(b - a):
            cc = list(c)
            cc[i - 1], cc[i] = a + p, b - p
            out.append((ctx.xi_m1, (tuple(cc), w)))
    elif a > b:
        for q in range(a - b):
            cc = list(c)
            cc[i - 1], cc[i] = b + q, a - q
            out.append((-ctx.xi_m1, (tuple(cc), w)))
    return tuple(out)


def _rmul_ti_label(ctx, c, w, i):
    """(L^c T_w) * T_i as ((coeff, label), ..)."""
    ws = perm_compose(w, perm_transposition(ctx.params.n, i))
    if w[i - 1] < w[i]:
        return ((ctx.t_one, (c, ws)),)
    return ((ctx.xi_m1, (c, w)), (ctx.t_xi, (c, ws)))


def _position(ctx, label):
    """The position of a label that a straightening rule produced; a label
    outside the basis is a fault in the rule."""
    pos = ctx._positions.get(label)
    if pos is None:
        raise AssertionError(f"straightening left the basis at {label!r}")
    return pos


def _encode(ctx, pairs):
    """A table entry ((position, coeff), ..) from ((coeff, label), ..)."""
    return tuple((_position(ctx, label), coeff) for coeff, label in pairs)


def _bump(ctx, terms, idx, coeff):
    if idx in terms:
        s = terms[idx] + coeff
        if ctx.ring.is_zero(s):
            del terms[idx]
        else:
            terms[idx] = s
    elif not ctx.ring.is_zero(coeff):
        terms[idx] = coeff


def _lmul_jm_index(ctx, m, idx):
    """L_m * (L^c T_w) as a terms dict: the L_k commute, so L_m raises c_m;
    only at c_m = r - 1 does it go through its palindromic word."""
    c, w = ctx.index_label(idx)
    if c[m - 1] + 1 < ctx.params.r:
        return {_position(ctx, (c[:m - 1] + (c[m - 1] + 1,) + c[m:], w)): ctx.t_one}
    terms = {idx: ctx.t_one}
    for tok in (*range(m - 1, 0, -1), *range(m)):
        terms = _terms_lmul(ctx, tok, terms)
    scale = _table_constant(ctx.ring, ctx.xi_inv ** (m - 1))
    return {i: coeff * scale for i, coeff in terms.items()}


def jm_polynomial(ctx, m, poly, elt):
    """poly(L_m) * elt for a coefficient list ordered low degree first, by
    Horner through the left action of L_m."""
    out = ctx.zero()
    for c in reversed(poly):
        out = HeckeElement(ctx, _terms_lmul(ctx, -m, out.terms)) + elt.scale(c)
    return out


def _star_index(ctx, idx):
    """(L^c T_w)^* = T_{w^-1} L^c as a terms dict, with table coefficients.
    For a right descent s of w, T_w = T_{ws} T_s, so (L^c T_w)^* =
    T_s (L^c T_{ws})^*: one left action on a shorter cached star."""
    cached = ctx._star.get(idx)
    if cached is None:
        c, w = ctx.index_label(idx)
        s = next((i for i in range(1, len(w)) if w[i - 1] > w[i]), None)
        if s is None:
            cached = {idx: ctx.t_one}
        else:
            ws = perm_compose(w, perm_transposition(ctx.params.n, s))
            cached = _terms_lmul(ctx, s, _star_index(ctx, _position(ctx, (c, ws))))
        ctx._star[idx] = cached
    return cached


def _terms_star(ctx, terms):
    stars = ctx._star
    out = {}
    for idx, coeff in terms.items():
        star = stars.get(idx)
        if star is None:
            star = _star_index(ctx, idx)
        for idx2, c2 in star.items():
            _bump(ctx, out, idx2, coeff * c2)
    return out


def _rmul_t0_index(ctx, idx):
    """(L^c T_w) * T_0 = (T_0 (L^c T_w)^*)^* as a terms dict."""
    return _terms_star(ctx, _terms_lmul(ctx, 0, _star_index(ctx, idx)))


def _table(tables, token):
    """One token's cached action, {position: ((position, coeff), ..)}."""
    table = tables.get(token)
    if table is None:
        table = tables[token] = {}
    return table


def _rmul_gen_index(ctx, idx, token):
    table = _table(ctx._rmul, token)
    cached = table.get(idx)
    if cached is None:
        if token == 0:
            cached = tuple(_rmul_t0_index(ctx, idx).items())
        else:
            c, w = ctx.index_label(idx)
            cached = _encode(ctx, _rmul_ti_label(ctx, c, w, token))
        table[idx] = cached
    return cached


def _lmul_gen_index(ctx, token, idx):
    """T_token * (L^c T_w) for a generator token 0 .. n-1, and L_m *
    (L^c T_w) for the token -m, as ((position, coeff), ..).  L_1 = T_0, so
    the token -1 reads the token-0 entries."""
    if token == -1:
        token = 0
    table = _table(ctx._lmul, token)
    cached = table.get(idx)
    if cached is None:
        if token < 0:
            cached = tuple(_lmul_jm_index(ctx, -token, idx).items())
        elif token == 0:
            cached = _encode(ctx, _lmul_t0_label(ctx, *ctx.index_label(idx)))
        else:
            cached = _encode(ctx, _lmul_ti_label(ctx, token, *ctx.index_label(idx)))
        table[idx] = cached
    return cached


def _rmul_gen(ctx, elt, token):
    table = _table(ctx._rmul, token)
    out = {}
    for idx, coeff in elt.terms.items():
        entry = table.get(idx)
        if entry is None:
            entry = _rmul_gen_index(ctx, idx, token)
        for idx2, c2 in entry:
            _bump(ctx, out, idx2, coeff * c2)
    return HeckeElement(ctx, out)


def _terms_lmul(ctx, token, terms):
    if token == -1:      # L_1 = T_0
        token = 0
    table = _table(ctx._lmul, token)
    out = {}
    for idx, coeff in terms.items():
        entry = table.get(idx)
        if entry is None:
            entry = _lmul_gen_index(ctx, token, idx)
        for idx2, c2 in entry:
            _bump(ctx, out, idx2, coeff * c2)
    return out


def _terms_mul(ctx, left, right):
    """left * right for terms dicts: each term L^c T_w of left acts on right
    by left actions, the letters of T_w last first, then each L_m."""
    labels = ctx._labels
    out = {}
    for idx, coeff in left.items():
        c, w = labels[idx]
        part = right
        for tok in reversed(coxeter_word(w)):
            part = _terms_lmul(ctx, tok, part)
        for m, cm in enumerate(c, start=1):
            for _ in range(cm):
                part = _terms_lmul(ctx, -m, part)
        for idx2, c2 in part.items():
            _bump(ctx, out, idx2, coeff * c2)
    return out


# -- elements ------------------------------------------------------------------

class HeckeElement:
    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = {i: c for i, c in terms.items() if not ctx.ring.is_zero(c)}

    def _check(self, other):
        if not isinstance(other, HeckeElement) or other.ctx is not self.ctx:
            raise HeckeError("mixed algebra contexts")
        return other

    def __add__(self, other):
        o = self._check(other)
        out = dict(self.terms)
        for idx, coeff in o.terms.items():
            _bump(self.ctx, out, idx, coeff)
        return HeckeElement(self.ctx, out)

    def __sub__(self, other):
        o = self._check(other)
        out = dict(self.terms)
        for idx, coeff in o.terms.items():
            _bump(self.ctx, out, idx, -coeff)
        return HeckeElement(self.ctx, out)

    def __neg__(self):
        return HeckeElement(self.ctx, {i: -c for i, c in self.terms.items()})

    def scale(self, coeff):
        self.ctx.ring.check(coeff)
        return HeckeElement(self.ctx, {i: c * coeff for i, c in self.terms.items()})

    def __mul__(self, other):
        """The walk goes over the factor with fewer terms; a sparser right
        factor walks as a * b = (b^* a^*)^*."""
        o = self._check(other)
        ctx = self.ctx
        if len(o.terms) < len(self.terms):
            return HeckeElement(ctx, _terms_star(ctx, _terms_mul(
                ctx, _terms_star(ctx, o.terms), _terms_star(ctx, self.terms))))
        return HeckeElement(ctx, _terms_mul(ctx, self.terms, o.terms))

    def _check_token(self, token):
        if not 0 <= token < self.ctx.params.n:
            raise HeckeError(f"generator index {token} out of range")

    def rmul_gen(self, token):
        self._check_token(token)
        return _rmul_gen(self.ctx, self, token)

    def lmul_gen(self, token):
        self._check_token(token)
        return HeckeElement(self.ctx, _terms_lmul(self.ctx, token, self.terms))

    def star(self):
        """The anti-involution fixing all generators."""
        return HeckeElement(self.ctx, _terms_star(self.ctx, self.terms))

    def tau(self):
        """Identity-basis coefficient: the standard symmetrizing form."""
        return self.terms.get(self.ctx.identity_index(), self.ctx.ring.zero())

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and other.ctx is self.ctx
            and other.terms.keys() == self.terms.keys()
            and all(other.terms[i] == c for i, c in self.terms.items())
        )

    def __repr__(self):
        labels = self.ctx._labels
        items = sorted(self.terms.items())[:6]
        body = ", ".join(f"{labels[i]}: {c!r}" for i, c in items)
        more = "" if len(self.terms) <= 6 else f", .. ({len(self.terms)} terms)"
        return f"HeckeElement({{{body}{more}}})"

    def to_json(self):
        """The terms as {"c", "w", "coeff"} objects, sorted by (c, w), which
        is position order."""
        ring, labels = self.ctx.ring, self.ctx._labels
        return [
            {"c": list(labels[i][0]), "w": list(labels[i][1]),
             "coeff": ring.format(coeff)}
            for i, coeff in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(ctx, payload):
        """The inverse of ``to_json``; HeckeError unless every term names a
        basis element L^c T_w of ctx and carries its coefficient as text."""
        r, n = ctx.params.r, ctx.params.n
        if not isinstance(payload, list):
            raise HeckeError("an element is a list of terms")
        terms = {}
        for item in payload:
            if not (isinstance(item, dict) and {"c", "w"} <= item.keys()
                    and isinstance(item.get("coeff"), str)):
                raise HeckeError('a term is {"c": .., "w": .., "coeff": "text"}')
            c, w = item["c"], item["w"]
            if not (isinstance(c, list) and len(c) == n and
                    all(type(x) is int and 0 <= x < r for x in c)):
                raise HeckeError(f"colors {c!r} are not {n} values in 0..{r - 1}")
            if not (isinstance(w, list) and all(type(x) is int for x in w)
                    and sorted(w) == list(range(1, n + 1))):
                raise HeckeError(f"{w!r} is not a permutation of 1..{n}")
            try:
                coeff = ctx.ring.parse(item["coeff"])
            except ZeroDivisionError:
                raise HeckeError(
                    f"zero denominator in coefficient {item['coeff']!r}") from None
            _bump(ctx, terms, ctx.position((tuple(c), tuple(w))), coeff)
        return HeckeElement(ctx, terms)


def word_product(ctx, word):
    """T_{x_1} .. T_{x_k} for a word over {T_0 .. T_{n-1}}."""
    out = ctx.one()
    for tok in word:
        out = _rmul_gen(ctx, out, tok)
    return out


def t_element(ctx, w):
    """T_w for a group element, via its fixed BM reduced word."""
    key = ctx.position((w.colors, w.perm))
    cached = ctx._t_cache.get(key)
    if cached is None:
        cached = word_product(ctx, bm_word(w)).terms
        ctx._t_cache[key] = cached
    return HeckeElement(ctx, cached)


def t_perm(ctx, perm):
    """T_w for a plain permutation (word-independent)."""
    return word_product(ctx, coxeter_word(perm))


# -- the Murphy cellular basis --------------------------------------------------

def young_subgroup(row_sizes, n):
    """All permutations preserving the consecutive blocks of given sizes."""
    blocks = []
    start = 1
    for size in row_sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    perms = [perm_identity(n)]
    for block in blocks:
        new = []
        for base in perms:
            for arrangement in itertools.permutations(block):
                img = list(base)
                for pos, val in zip(block, arrangement):
                    img[pos - 1] = val
                new.append(tuple(img))
        perms = new
    return perms


def _row_sizes(shape):
    return [row for comp in shape for row in comp]


def m_tt(ctx, shape):
    """The diagonal cellular generator m_{t^mu, t^mu}."""
    n, r = ctx.params.n, ctx.params.r
    elt = ctx.zero()
    for w in young_subgroup(_row_sizes(shape), n):
        elt = elt + t_perm(ctx, w)
    cum = 0
    for k in range(2, r + 1):
        cum += sum(shape[k - 2])
        for m in range(1, cum + 1):
            elt = elt * (ctx.jm(m) - ctx.one().scale(ctx.qs[k - 1]))
    return elt


def m_basis(ctx, s, t):
    """The Murphy cellular basis element m_{st}."""
    from .tableaux import d_perm
    from .group import perm_inverse
    if s.shape != t.shape:
        raise HeckeError("tableaux must share a shape")
    left = t_perm(ctx, perm_inverse(d_perm(s)))
    right = t_perm(ctx, d_perm(t))
    return left * m_tt(ctx, s.shape) * right


def elementary_symmetric_jm(ctx, m):
    """e_m(L_1, .., L_n) as an algebra element."""
    return elementary_symmetric(ctx.jm_all(), m, ctx.one())
