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

The generator actions on basis indices and the index stars are cached as
tables over the straightening constants $1$, $\xi$, $\xi - 1$ and the
signed $e_j(Q)$.  Over $\mathbb{Q}$ an integral constant is a Python
``int``, so those tables (and the commutator vectors of the center module)
are built in integer arithmetic; an element's coefficients stay
``Fraction``s, because every use of a table multiplies it by one.

A polynomial in one Jucys-Murphy element acts through :func:`jm_polynomial`:
Horner's rule with $\mathcal{L}_m$ applied as $2m-1$ left generator actions.

A second basis $\{T_w : w \in W_n\}$, one fixed reduced word per group
element, is available through :func:`t_element`; two reduced words of the
same element give products that differ only by shorter non-Coxeter terms,
so the collection is again a basis.
"""

from __future__ import annotations

import itertools

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
        self._rmul = {}
        self._lmul = {}
        # terms dicts, not HeckeElements: an element refers back to its
        # context, and that cycle would keep a dropped context alive until
        # the next full garbage collection
        self._star = {}
        self._t_cache = {}
        self._jm_cache = {}

    # -- bookkeeping --------------------------------------------------------

    @property
    def dimension(self):
        return self.params.order

    def identity_index(self):
        n = self.params.n
        return ((0,) * n, perm_identity(n))

    def basis_indices(self):
        n, r = self.params.n, self.params.r
        perms = sorted(itertools.permutations(range(1, n + 1)))
        for c in itertools.product(range(r), repeat=n):
            for w in perms:
                yield (c, w)

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
            return self.from_index((c, perm_identity(n)))
        if not 1 <= token <= n - 1:
            raise HeckeError(f"generator index {token} out of range")
        return self.from_index(((0,) * n, perm_transposition(n, token)))

    def jm(self, m):
        """The m-th Jucys-Murphy element."""
        if not 1 <= m <= self.params.n:
            raise HeckeError(f"Jucys-Murphy index {m} out of range")
        if m not in self._jm_cache:
            if self.params.r >= 2:
                c = tuple(1 if k == m - 1 else 0 for k in range(self.params.n))
                elt = self.from_index((c, perm_identity(self.params.n)))
            else:
                elt = _lmul_jm(self, m, self.one())
            self._jm_cache[m] = elt.terms
        return HeckeElement(self, self._jm_cache[m])

    def jm_all(self):
        return [self.jm(m) for m in range(1, self.params.n + 1)]


def _table_constant(ring, value):
    """A straightening constant as the tables hold it: over Q an int when
    it is integral, else the ring value itself."""
    if ring.kind in RATIONAL_KINDS and value.denominator == 1:
        return value.numerator
    return value


# -- index-level straightening ------------------------------------------------

def _lmul_t0_index(ctx, idx):
    """L_1 * (L^c T_w) as [(coeff, index)]."""
    c, w = idx
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


def _lmul_ti_index(ctx, i, idx):
    """T_i * (L^c T_w) as [(coeff, index)]."""
    c, w = idx
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


def _rmul_ti_index(ctx, idx, i):
    """(L^c T_w) * T_i as [(coeff, index)]."""
    c, w = idx
    ws = perm_compose(w, perm_transposition(ctx.params.n, i))
    if w[i - 1] < w[i]:
        return ((ctx.t_one, (c, ws)),)
    return ((ctx.xi_m1, (c, w)), (ctx.t_xi, (c, ws)))


def _bump(ctx, terms, idx, coeff):
    if idx in terms:
        s = terms[idx] + coeff
        if ctx.ring.is_zero(s):
            del terms[idx]
        else:
            terms[idx] = s
    elif not ctx.ring.is_zero(coeff):
        terms[idx] = coeff


def _lmul_jm(ctx, m, elt):
    """L_m * elt through the palindromic generator word."""
    word = tuple(range(m - 1, 0, -1)) + (0,) + tuple(range(1, m))
    out = elt
    for tok in reversed(word):
        out = _lmul_gen(ctx, tok, out)
    return out.scale(ctx.xi_inv ** (m - 1))


def jm_polynomial(ctx, m, poly, elt):
    """poly(L_m) * elt for a coefficient list ordered low degree first, by
    Horner through the left action of L_m."""
    out = ctx.zero()
    for c in reversed(poly):
        out = _lmul_jm(ctx, m, out) + elt.scale(c)
    return out


def _star_index(ctx, idx):
    """(L^c T_w)^* = T_{w^-1} L^c as a terms dict, with table coefficients.
    For a right descent s of w, T_w = T_{ws} T_s, so (L^c T_w)^* =
    T_s (L^c T_{ws})^*: one left action on a shorter cached star."""
    cached = ctx._star.get(idx)
    if cached is None:
        c, w = idx
        s = next((i for i in range(1, len(w)) if w[i - 1] > w[i]), None)
        if s is None:
            cached = {idx: ctx.t_one}
        else:
            ws = perm_compose(w, perm_transposition(ctx.params.n, s))
            cached = _terms_lmul(ctx, s, _star_index(ctx, (c, ws)))
        ctx._star[idx] = cached
    return cached


def _terms_star(ctx, terms):
    out = {}
    for idx, coeff in terms.items():
        for idx2, c2 in _star_index(ctx, idx).items():
            _bump(ctx, out, idx2, coeff * c2)
    return out


def _rmul_t0_index(ctx, idx):
    """(L^c T_w) * T_0 = (T_0 (L^c T_w)^*)^* as a terms dict."""
    return _terms_star(ctx, _terms_lmul(ctx, 0, _star_index(ctx, idx)))


def _rmul_gen_index(ctx, idx, token):
    key = (idx, token)
    cached = ctx._rmul.get(key)
    if cached is None:
        if token == 0:
            cached = tuple(_rmul_t0_index(ctx, idx).items())
        else:
            cached = tuple((i, c) for c, i in _rmul_ti_index(ctx, idx, token))
        ctx._rmul[key] = cached
    return cached


def _lmul_gen_index(ctx, token, idx):
    key = (token, idx)
    cached = ctx._lmul.get(key)
    if cached is None:
        if token == 0:
            cached = tuple((i, c) for c, i in _lmul_t0_index(ctx, idx))
        else:
            cached = tuple((i, c) for c, i in _lmul_ti_index(ctx, token, idx))
        ctx._lmul[key] = cached
    return cached


def _rmul_gen(ctx, elt, token):
    out = {}
    for idx, coeff in elt.terms.items():
        for idx2, c2 in _rmul_gen_index(ctx, idx, token):
            _bump(ctx, out, idx2, coeff * c2)
    return HeckeElement(ctx, out)


def _terms_lmul(ctx, token, terms):
    out = {}
    for idx, coeff in terms.items():
        for idx2, c2 in _lmul_gen_index(ctx, token, idx):
            _bump(ctx, out, idx2, coeff * c2)
    return out


def _lmul_gen(ctx, token, elt):
    return HeckeElement(ctx, _terms_lmul(ctx, token, elt.terms))


def _index_word_and_scale(ctx, idx):
    """Canonical generator word of L^c T_w and its scalar prefactor."""
    c, w = idx
    word = []
    shift = 0
    for m, cm in enumerate(c, start=1):
        for _ in range(cm):
            word.extend(range(m - 1, 0, -1))
            word.append(0)
            word.extend(range(1, m))
            shift += m - 1
    word.extend(coxeter_word(w))
    return tuple(word), ctx.xi_inv ** shift


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
        o = self._check(other)
        ctx = self.ctx
        out = ctx.zero()
        for idx, coeff in o.terms.items():
            word, scale = _index_word_and_scale(ctx, idx)
            part = self
            for tok in word:
                part = _rmul_gen(ctx, part, tok)
            out = out + part.scale(scale * coeff)
        return out

    def rmul_gen(self, token):
        return _rmul_gen(self.ctx, self, token)

    def lmul_gen(self, token):
        return _lmul_gen(self.ctx, token, self)

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
        items = sorted(self.terms.items())[:6]
        body = ", ".join(f"{i}: {c!r}" for i, c in items)
        more = "" if len(self.terms) <= 6 else f", .. ({len(self.terms)} terms)"
        return f"HeckeElement({{{body}{more}}})"

    def to_json(self):
        ring = self.ctx.ring
        return [
            {"c": list(c), "w": list(w), "coeff": ring.format(coeff)}
            for (c, w), coeff in sorted(self.terms.items())
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
            _bump(ctx, terms, (tuple(c), tuple(w)), coeff)
        return HeckeElement(ctx, terms)


def word_product(ctx, word):
    """T_{x_1} .. T_{x_k} for a word over {T_0 .. T_{n-1}}."""
    out = ctx.one()
    for tok in word:
        out = _rmul_gen(ctx, out, tok)
    return out


def t_element(ctx, w):
    """T_w for a group element, via its fixed BM reduced word."""
    key = (w.colors, w.perm)
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


def m_basis(ctx, s, t, diag_cache=None):
    """The Murphy cellular basis element m_{st}."""
    from .tableaux import d_perm
    from .group import perm_inverse
    if s.shape != t.shape:
        raise HeckeError("tableaux must share a shape")
    diag = (diag_cache or {}).get(s.shape)
    if diag is None:
        diag = m_tt(ctx, s.shape)
        if diag_cache is not None:
            diag_cache[s.shape] = diag
    left = t_perm(ctx, perm_inverse(d_perm(s)))
    right = t_perm(ctx, d_perm(t))
    return left * diag * right


def elementary_symmetric_jm(ctx, m):
    """e_m(L_1, .., L_n) as an algebra element."""
    n = ctx.params.n
    out = ctx.zero()
    for subset in itertools.combinations(range(1, n + 1), m):
        part = ctx.one()
        for k in subset:
            part = part * ctx.jm(k)
        out = out + part
    return out
