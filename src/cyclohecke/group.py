r"""
The complex reflection group $W_n = G(r,1,n)$ as colored permutations.

An element is a pair (colors, perm): it acts on basis vectors by
$e_i \mapsto \zeta^{c_i} e_{\sigma(i)}$ where $\zeta$ is a primitive $r$-th
root of unity, i.e. it is a monomial matrix whose nonzero entries are $r$-th
roots of unity.  The composition law is

    (d, tau) * (c, sigma) = (i -> c_i + d_{sigma(i)} mod r,  tau o sigma).

Generators: ``t`` colors position 1, ``s_i`` swaps positions i, i+1.
Words are tuples of integer tokens, 0 for ``t`` and i for ``s_i``.

Generator actions.  Multiplying by a power of one generator needs no product
law: on the tuples it is an O(n) edit.  On the right (``rmul_gen``), ``t^p``
adds p to the color of position 1 and ``s_i`` exchanges positions i and i+1
of both tuples; on the left (``lmul_gen``), ``t^p`` adds p to the color of
the column sent to row 1 and ``s_i`` exchanges the values i and i+1 of the
permutation.  The results, like products, inverses and the constants
``identity``, ``gen_t`` and ``gen_s``, hold the element's invariants by
construction, so they are built unchecked; ``GroupElement(...)`` validates
outside input.  ``eval_word`` checks a word's tokens, then applies their right
actions to one pair of lists.  The product law itself is ``_product``, on
(colors, perm) tuple pairs; ``GroupElement.__mul__`` wraps it, and the
certificate replay in ``reduction`` calls it directly, as it calls ``_length``,
the tuple-level form of ``length``.

Normal forms.  Every element has a unique Bremke-Malle (BM) normal form
$t_{0,a_0} t_{1,a_1} \cdots t_{n-1,a_{n-1}} v$ with $0 \le a_i < r$ and
$v \in \mathfrak{S}_n$, where $t_{k,a} = s_k s_{k-1} \cdots s_1 t^a$ (reading
left to right) and $t_{k,0} = 1$.  These words are reduced, so the length of
an element is $\sum_{a_i > 0} (i + a_i)$ plus the Coxeter length of $v$.
``bm_normal_form`` computes the parts $(a, v)$ on the raw color and
permutation tuples, with no word and no group product, and builds its word
from them.  ``length`` needs only the sum, which has a closed form on the
tuples.  Write $c_j$ for the color of position $j$ and $\pi_j$ for the row
that position $j$ is sent to, and $K$ for the number of colored positions.
Then $a_{\pi_j - 1} = c_j$, and $v$ sends the colored positions to the rows
$1..K$ in decreasing order of $\pi_j$ and the uncolored ones to the rows
$K+1..n$ in increasing order of $\pi_j$, so

    l(w) = sum_{c_j != 0} (pi_j - 1 + c_j)
           + #{i < j : c_i, c_j != 0, pi_i < pi_j}
           + #{i < j : c_i = c_j = 0, pi_i > pi_j}
           + #{i < j : c_i = 0, c_j != 0},

the last three terms being the inversions of $v$ among colored positions,
among uncolored ones, and between the two.
The double-coset (DC) normal form peels one level: $w = a \cdot d \cdot b$
with $a, b \in W_{n-1}$, $d \in \{1, s_{n-1}, s'_{n-1,1}, .., s'_{n-1,r-1}\}$
and additive lengths, where $s'_{k,l} = s_k \cdots s_1 t^l s_1 \cdots s_k$ is
the colored pseudo-reflection fixing everything but position $k+1$.

Conjugacy classes are labelled by $r$-multipartitions of $n$: component
$j{+}1$ collects the lengths of the cycles of $\sigma$ whose total color is
$j$ modulo $r$.  Minimal-length class representatives are the block products
$w_\beta$ attached to colored semi-bipartitions; see ``reduction`` for the
engine that conjugates an arbitrary element down to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupParams:
    r: int
    n: int

    def __post_init__(self):
        if self.r < 1 or self.n < 1:
            raise GroupError("need r >= 1 and n >= 1")

    @property
    def order(self):
        return self.r ** self.n * _factorial(self.n)


def _factorial(n):
    return reduce(lambda a, b: a * b, range(1, n + 1), 1)


# -- permutations as tuples of one-based images -----------------------------

def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_compose(p, q):
    """(p o q)(i) = p(q(i))."""
    return tuple([p[j - 1] for j in q])


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def perm_transposition(n, i):
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def coxeter_word(p):
    """A fixed reduced word for a permutation (tokens are s-indices).

    Bubbles n, n-1, .. into place; the word length equals the inversion
    number, hence the word is reduced.
    """
    u = list(p)
    moves = []
    n = len(u)
    for m in range(n, 1, -1):
        pos = u.index(m) + 1
        for q in range(pos, m):
            u[q - 1], u[q] = u[q], u[q - 1]
            moves.append(q)
    return tuple(reversed(moves))


# -- group elements ----------------------------------------------------------

class GroupElement:
    __slots__ = ("params", "colors", "perm", "_hash")

    def __init__(self, params, colors, perm):
        colors = tuple(c % params.r for c in colors)
        perm = tuple(perm)
        if len(colors) != params.n or sorted(perm) != list(range(1, params.n + 1)):
            raise GroupError("malformed colored permutation")
        _fill(self, params, colors, perm)

    @staticmethod
    def _trusted(params, colors, perm):
        """An element from tuples that already hold its invariants (colors
        in 0..r-1, perm a permutation of 1..n); nothing is checked."""
        out = object.__new__(GroupElement)
        _fill(out, params, colors, perm)
        return out

    def __setattr__(self, *a):
        raise AttributeError("GroupElement is immutable")

    @staticmethod
    def identity(params):
        return GroupElement._trusted(params, (0,) * params.n, perm_identity(params.n))

    @staticmethod
    def gen_t(params):
        return GroupElement._trusted(
            params, (1 % params.r,) + (0,) * (params.n - 1), perm_identity(params.n))

    @staticmethod
    def gen_s(params, i):
        if not 1 <= i <= params.n - 1:
            raise GroupError(f"s_{i} out of range for n={params.n}")
        return GroupElement._trusted(params, (0,) * params.n, perm_transposition(params.n, i))

    def _check(self, other):
        if not isinstance(other, GroupElement) or (
                other.params is not self.params and other.params != self.params):
            raise GroupError("mismatched group parameters")
        return other

    def __mul__(self, other):
        o = self._check(other)
        colors, perm = _product(self.params.r, (self.colors, self.perm),
                                (o.colors, o.perm))
        return GroupElement._trusted(self.params, colors, perm)

    def inverse(self):
        inv = perm_inverse(self.perm)
        r = self.params.r
        colors = tuple([-self.colors[j - 1] % r for j in inv])
        return GroupElement._trusted(self.params, colors, inv)

    def rmul_gen(self, token, power=1):
        """self * g**power for the generator g of the given token."""
        colors, perm = list(self.colors), list(self.perm)
        _act_right(self.params, colors, perm, token, power)
        return GroupElement._trusted(self.params, tuple(colors), tuple(perm))

    def lmul_gen(self, token, power=1):
        """g**power * self for the generator g of the given token: t adds
        power to the color of the column sent to row 1, s_i exchanges the
        values i and i+1 of the permutation."""
        params = self.params
        _check_token(params, token)
        if token == 0:
            colors = list(self.colors)
            col = self.perm.index(1)
            colors[col] = (colors[col] + power) % params.r
            return GroupElement._trusted(params, tuple(colors), self.perm)
        if power % 2 == 0:
            return self
        perm = list(self.perm)
        a, b = perm.index(token), perm.index(token + 1)
        perm[a], perm[b] = token + 1, token
        return GroupElement._trusted(params, self.colors, tuple(perm))

    def is_identity(self):
        return all(c == 0 for c in self.colors) and self.perm == perm_identity(self.params.n)

    def is_plain(self):
        """True when the element lies in the symmetric subgroup."""
        return all(c == 0 for c in self.colors)

    def in_sublevel(self, m):
        """True when the element lies in W_m (fixes positions > m, color 0)."""
        return all(self.perm[i] == i + 1 and self.colors[i] == 0
                   for i in range(m, self.params.n))

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.perm == self.perm
            and other.colors == self.colors
            and (other.params is self.params or other.params == self.params)
        )

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash((self.colors, self.perm)))
        return self._hash

    def __repr__(self):
        return f"GroupElement({list(self.colors)}, {list(self.perm)})"

    def to_json(self):
        return {"colors": list(self.colors), "perm": list(self.perm)}

    @staticmethod
    def from_json(params, payload):
        return GroupElement(params, payload["colors"], payload["perm"])


_set_params = GroupElement.params.__set__
_set_colors = GroupElement.colors.__set__
_set_perm = GroupElement.perm.__set__
_set_hash = GroupElement._hash.__set__


def _fill(elt, params, colors, perm):
    """Store the fields through the slot descriptors, which bypass the
    refusing ``__setattr__``."""
    _set_params(elt, params)
    _set_colors(elt, colors)
    _set_perm(elt, perm)
    _set_hash(elt, None)


def _product(r, a, b):
    """The product law on (colors, perm) tuple pairs: a * b, as a pair."""
    ac, ap = a
    bc, bp = b
    return (tuple([(c + ac[j - 1]) % r for c, j in zip(bc, bp)]),
            tuple([ap[j - 1] for j in bp]))


def _check_token(params, token):
    if not 0 <= token <= params.n - 1:
        raise GroupError(f"generator token {token} out of range for n={params.n}")


def _act_right(params, colors, perm, token, power):
    """Right multiplication by g**power on color and permutation lists, in
    place: t adds power to the color of position 1, s_i exchanges positions
    i and i+1 of both lists."""
    _check_token(params, token)
    if token == 0:
        colors[0] = (colors[0] + power) % params.r
    elif power % 2:
        i = token
        colors[i - 1], colors[i] = colors[i], colors[i - 1]
        perm[i - 1], perm[i] = perm[i], perm[i - 1]


# -- words -------------------------------------------------------------------

def parse_word(params, text):
    """Whitespace-separated tokens ``t``, ``s1`` .. ``s{n-1}`` (``T0`` = ``t``);
    ``e`` alone is the empty word, as ``format_word`` prints it."""
    words = text.split()
    if words == ["e"]:
        return ()
    tokens = []
    for tok in words:
        if tok in ("t", "T0"):
            tokens.append(0)
        elif tok.startswith("s") and tok[1:].isdigit():
            i = int(tok[1:])
            if not 1 <= i <= params.n - 1:
                raise GroupError(f"generator subscript out of range: {tok}")
            tokens.append(i)
        else:
            raise GroupError(f"unknown generator token: {tok!r}")
    return tuple(tokens)


def format_word(word):
    return " ".join("t" if x == 0 else f"s{x}" for x in word) if word else "e"


def gen_element(params, token):
    return GroupElement.gen_t(params) if token == 0 else GroupElement.gen_s(params, token)


def eval_word(params, word):
    """The element of a word: every token is checked first, then the right
    actions of the letters are applied to one pair of lists."""
    for token in word:
        _check_token(params, token)
    r = params.r
    colors, perm = [0] * params.n, list(perm_identity(params.n))
    for i in word:
        if i == 0:
            colors[0] = (colors[0] + 1) % r
        else:
            colors[i - 1], colors[i] = colors[i], colors[i - 1]
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return GroupElement._trusted(params, tuple(colors), tuple(perm))


# -- special elements and their fixed reduced words --------------------------

def t_word(k, a):
    """Word of t_{k,a} = s_k s_{k-1} .. s_1 t^a (empty when a = 0)."""
    if a == 0:
        return ()
    return tuple(range(k, 0, -1)) + (0,) * a


def sprime_word(k, l):
    """Word of s'_{k,l} = s_k .. s_1 t^l s_1 .. s_k."""
    return tuple(range(k, 0, -1)) + (0,) * l + tuple(range(1, k + 1))


def t_ka(params, k, a):
    if not 0 <= k <= params.n - 1:
        raise GroupError("t_{k,a} needs 0 <= k <= n-1")
    return eval_word(params, t_word(k, a % params.r))


def sprime(params, k, l):
    """The colored pseudo-reflection: zeta^l in position k+1."""
    if not (0 <= k <= params.n - 1 and 1 <= l <= params.r - 1):
        raise GroupError("s'_{k,l} needs 0 <= k <= n-1 and 1 <= l <= r-1")
    colors = [0] * params.n
    colors[k] = l
    return GroupElement(params, colors, perm_identity(params.n))


def block_word(start, size, color):
    """Word of one block of w_{lambda,eps}: s'_{start,color} s_{start+1} .. ."""
    word = sprime_word(start, color) if color else ()
    return word + tuple(range(start + 1, start + size))


def w_lambda_eps(params, lam, eps):
    """The block product attached to a composition with a color vector."""
    lam, eps = tuple(lam), tuple(eps)
    if len(lam) != len(eps):
        raise GroupError("color vector length must match the number of parts")
    if sum(lam) != params.n or any(p < 1 for p in lam):
        raise GroupError("parts must be positive and sum to n")
    if any(not 0 <= e <= params.r - 1 for e in eps):
        raise GroupError("colors must lie in 0..r-1")
    word = []
    start = 0
    for part, color in zip(lam, eps):
        word.extend(block_word(start, part, color))
        start += part
    return eval_word(params, tuple(word)), tuple(word)


@dataclass(frozen=True)
class ColoredSemiBicomposition:
    """(lambda, mu): lambda weakly increasing with colors in 1..r-1 that are
    weakly decreasing on equal parts; mu an arbitrary composition."""

    lam: tuple          # part sizes of the colored piece
    colors: tuple       # one color per part of lam
    mu: tuple           # composition of the remainder

    def __post_init__(self):
        if len(self.lam) != len(self.colors):
            raise GroupError("one color per colored row")
        if any(p < 1 for p in self.lam + self.mu):
            raise GroupError("parts must be positive")
        if any(c < 1 for c in self.colors):
            raise GroupError("colored rows need colors >= 1")
        for i in range(len(self.lam) - 1):
            if self.lam[i] > self.lam[i + 1]:
                raise GroupError("lambda must be weakly increasing")
            if self.lam[i] == self.lam[i + 1] and self.colors[i] < self.colors[i + 1]:
                raise GroupError("colors must be weakly decreasing on equal rows")

    @property
    def size(self):
        return sum(self.lam) + sum(self.mu)

    def is_bipartition(self):
        return all(self.mu[i] >= self.mu[i + 1] for i in range(len(self.mu) - 1))

    def to_json(self):
        return {"lambda": list(self.lam), "colors": list(self.colors),
                "mu": list(self.mu)}


def w_alpha(params, alpha):
    """The minimal-length representative attached to a colored
    semi-bicomposition: colored blocks first, then the uncolored ones."""
    lam = alpha.lam + alpha.mu
    eps = alpha.colors + (0,) * len(alpha.mu)
    return w_lambda_eps(params, lam, eps)


# -- BM normal form and length ------------------------------------------------

@dataclass(frozen=True)
class BMNormalForm:
    a: tuple            # torus exponents a_0 .. a_{n-1}
    v: tuple            # permutation part, one-line
    word: tuple         # fixed reduced word for the whole element

    def length(self):
        return _bm_length(self.a, self.v)


def _bm_parts(w):
    """The BM parts (a, v) of w, computed on its color and permutation
    tuples without forming a GroupElement.

    ``a_i`` is the color of row i+1 and ``v`` the permutation of
    prefix^{-1} w, prefix = t_{0,a_0} .. t_{n-1,a_{n-1}}.  The inverse
    t_{k,a}^{-1} carries color -a in position k+1 and permutation
    j -> j+1 (j <= k), k+1 -> 1, so by the product law left multiplication
    by it subtracts a from the column sent to row k+1, moves that column to
    row 1 and moves rows 1..k one row down.  prefix^{-1} w is built this
    way, one factor at a time starting from t_{0,a_0}^{-1}.
    """
    a = [0] * w.params.n
    for col, row in enumerate(w.perm):
        a[row - 1] = w.colors[col]
    colors, perm = list(w.colors), list(w.perm)
    for k, ak in enumerate(a):
        if ak:
            for i, row in enumerate(perm):
                if row == k + 1:
                    colors[i] -= ak
                    perm[i] = 1
                elif row <= k:
                    perm[i] = row + 1
    if any(c % w.params.r for c in colors):
        raise AssertionError("torus prefix failed to absorb the colors")
    return tuple(a), tuple(perm)


def _bm_length(a, v):
    return sum(i + ai for i, ai in enumerate(a) if ai) + perm_inversions(v)


def bm_normal_form(w):
    """Unique decomposition w = t_{0,a_0} .. t_{n-1,a_{n-1}} v."""
    a, v = _bm_parts(w)
    word = tuple(x for i, ai in enumerate(a) for x in t_word(i, ai))
    return BMNormalForm(a, v, word + coxeter_word(v))


def length(w):
    """Distance from the identity in the Cayley graph on {t, s_1, .., s_{n-1}}."""
    return _length(w.colors, w.perm)


def _length(colors, perm):
    """The length of the element with these tuples.

    The BM length sum_{a_i > 0} (i + a_i) + inv(v) in closed form on the
    tuples (see the module docstring), in one pass over the positions: a
    colored position j adds pi_j - 1 + c_j, the colored positions before it
    sent to lower rows, and every uncolored position before it; an uncolored
    one adds the uncolored positions before it sent to higher rows.  The rows
    reached so far are kept as two bit masks, one per kind of position."""
    total = colored = plain = n_plain = 0
    for c, row in zip(colors, perm):
        bit = 1 << row
        if c:
            total += row - 1 + c + (colored & (bit - 1)).bit_count() + n_plain
            colored |= bit
        else:
            total += (plain >> row).bit_count()
            plain |= bit
            n_plain += 1
    return total


def bm_word(w):
    return bm_normal_form(w).word


# -- DC normal form -----------------------------------------------------------

@dataclass(frozen=True)
class DCNormalForm:
    a: GroupElement
    d: GroupElement
    b: GroupElement
    d_word: tuple
    b_word: tuple
    level: int


def dc_normal_form(w, level=None):
    """Peel the top level: w = a * d * b with a, b in W_{level-1}.

    ``level`` defaults to n; the element must lie in W_level.  At level 1 the
    divisor set degenerates to the powers of t.
    """
    params = w.params
    m = params.n if level is None else level
    if not w.in_sublevel(m):
        raise GroupError(f"element does not lie in W_{m}")
    one = GroupElement.identity(params)
    if m == 1:
        d_word = (0,) * w.colors[0]
        return DCNormalForm(one, w, one, d_word, (), 1)
    p = perm_inverse(w.perm)[m - 1]   # column sent to row m
    rho = w.colors[p - 1]             # its color
    if p == m and rho == 0:
        return DCNormalForm(w, one, one, (), (), m)
    if p == m:
        d = sprime(params, m - 1, rho)
        return DCNormalForm(w * d.inverse(), d, one, sprime_word(m - 1, rho), (), m)
    d = GroupElement.gen_s(params, m - 1)
    if rho == 0:
        b_word = tuple(range(m - 2, p - 1, -1))
    else:
        b_word = tuple(range(m - 2, 0, -1)) + (0,) * rho + tuple(range(1, p))
    b = eval_word(params, b_word)
    a = w * (d * b).inverse()
    if not a.in_sublevel(m - 1):
        raise AssertionError("DC prefix escaped W_{m-1}")
    return DCNormalForm(a, d, b, (m - 1,), b_word, m)


# -- conjugacy ----------------------------------------------------------------

def perm_cycles(p):
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(1, n + 1):
        if not seen[i - 1]:
            cyc = []
            j = i
            while not seen[j - 1]:
                seen[j - 1] = True
                cyc.append(j)
                j = p[j - 1]
            cycles.append(tuple(cyc))
    return cycles


def conjugacy_invariant(w):
    """The r-multipartition of cycle lengths sorted by total cycle color."""
    params = w.params
    comps = [[] for _ in range(params.r)]
    for cyc in perm_cycles(w.perm):
        total = sum(w.colors[i - 1] for i in cyc) % params.r
        comps[total].append(len(cyc))
    return tuple(tuple(sorted(c, reverse=True)) for c in comps)


def phi_bijection_full(params, alpha):
    """Colored semi-bipartition -> r-multipartition: component 1 is mu,
    component j+1 collects the lambda rows colored j, sorted decreasingly."""
    if not alpha.is_bipartition():
        raise GroupError("phi is defined on colored semi-bipartitions")
    comps = [list(alpha.mu)] + [[] for _ in range(params.r - 1)]
    for part, color in zip(alpha.lam, alpha.colors):
        comps[color].append(part)
    return tuple(tuple(sorted(c, reverse=True)) for c in comps)


def phi_inverse(params, multipartition):
    """r-multipartition -> the canonical colored semi-bipartition."""
    if len(multipartition) != params.r:
        raise GroupError("need exactly r components")
    mu = tuple(sorted(multipartition[0], reverse=True))
    rows = []
    for color in range(1, params.r):
        rows.extend((part, color) for part in multipartition[color])
    rows.sort(key=lambda pc: (pc[0], -pc[1]))
    return ColoredSemiBicomposition(
        lam=tuple(p for p, _ in rows),
        colors=tuple(c for _, c in rows),
        mu=mu,
    )


# -- theta: block products <-> divisor chains --------------------------------

class NotBlockProduct(GroupError):
    pass


def divisor_chain(w):
    """Factor w = d_1 d_2 .. d_n with d_i in the level-i divisor set.

    Raises :class:`NotBlockProduct` unless every DC step has trivial b part,
    which characterises the elements w_{lambda,eps}.
    """
    params = w.params
    cur = w
    ds = [None] * params.n
    for m in range(params.n, 1, -1):
        dc = dc_normal_form(cur, m)
        if not dc.b.is_identity():
            raise NotBlockProduct("element is not a product of level divisors")
        if dc.d.is_identity():
            ds[m - 1] = ("one",)
        elif dc.d_word == (m - 1,):
            ds[m - 1] = ("s",)
        else:
            ds[m - 1] = ("sprime", dc.d.colors[m - 1])
        cur = dc.a
    if not cur.in_sublevel(1):
        raise AssertionError("peeling left more than W_1")
    ds[0] = ("t", cur.colors[0])
    return ds


def theta_factorization(w):
    """Read (lambda, eps) off the divisor chain of a block product."""
    ds = divisor_chain(w)
    return (ds,) + chain_blocks(ds)


def chain_blocks(ds):
    """The block sizes lambda and colors eps of a divisor chain d_1 .. d_n:
    ``s`` extends the current block, every other divisor opens one."""
    lam, eps = [], []
    for i, d in enumerate(ds, start=1):
        if i >= 2 and d == ("s",):
            lam[-1] += 1
            continue
        if d[0] == "t":
            lam.append(1)
            eps.append(d[1])
        elif d == ("one",):
            lam.append(1)
            eps.append(0)
        elif d[0] == "sprime":
            lam.append(1)
            eps.append(d[1])
        else:
            raise NotBlockProduct("level-1 divisor chain cannot contain s_0")
    return tuple(lam), tuple(eps)


def is_alpha_form(w):
    """The colored semi-bicomposition alpha with w == w_alpha, or None."""
    try:
        _, lam, eps = theta_factorization(w)
    except NotBlockProduct:
        return None
    k = 0
    while k < len(lam) and eps[k] != 0:
        k += 1
    if any(e != 0 for e in eps[k:]):
        return None
    try:
        return ColoredSemiBicomposition(lam[:k], eps[:k], lam[k:])
    except GroupError:
        return None


# -- enumeration oracles ------------------------------------------------------

class BudgetExceeded(GroupError):
    pass


def enumerate_group(params, budget=50_000):
    """All elements with their exact lengths, by BFS over right multiplication."""
    if params.order > budget:
        raise BudgetExceeded(f"group order {params.order} exceeds budget {budget}")
    gens = [gen_element(params, tok) for tok in range(params.n)]
    start = GroupElement.identity(params)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = w * g
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    if len(dist) != params.order:
        raise AssertionError("BFS failed to reach the whole group")
    return dist


def enumerate_classes(params, budget=50_000):
    """Conjugacy classes as lists of elements (orbits under conjugation)."""
    elements = enumerate_group(params, budget)
    gens = [gen_element(params, tok) for tok in range(params.n)]
    seen = set()
    classes = []
    for w in elements:
        if w in seen:
            continue
        orbit = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for u in frontier:
                for g in gens:
                    v = g * u * g.inverse()
                    if v not in orbit:
                        orbit.add(v)
                        nxt.append(v)
            frontier = nxt
        seen |= orbit
        classes.append(sorted(orbit, key=lambda e: (length(e), e.colors, e.perm)))
    return classes


def reduced_words(w, cap=None):
    """All reduced words of an element (small ranks only)."""
    ln = length(w)
    params = w.params

    def rec(u, lu):
        if lu == 0:
            yield ()
            return
        for tok in range(params.n):
            prev = u * gen_element(params, tok).inverse()
            if length(prev) == lu - 1:
                for word in rec(prev, lu - 1):
                    yield word + (tok,)

    out = []
    for word in rec(w, ln):
        out.append(word)
        if cap is not None and len(out) >= cap:
            break
    return out
