r"""
Exact coefficient arithmetic for the algebra layer.

Four kinds of coefficients are supported, all immutable and hashable:

* ``Fraction`` (from the stdlib) for the rational field.
* ``Cyc`` for the cyclotomic field $\QQ(\zeta_e)$, stored as a vector of
  rationals modulo the $e$-th cyclotomic polynomial $\Phi_e$.
* ``Laurent`` for the ring $\ZZ[\xi^{\pm1}, Q_1^{\pm1}, \dots, Q_r^{\pm1}]$,
  a sparse map from integer exponent vectors to nonzero integer
  coefficients.  Outside input is validated: ``Laurent(nq, terms)``,
  ``monomial``, ``const``, ``parse`` and the argument of ``shift`` check the
  exponent arity and reject a coefficient that is not an integer (an
  integral ``Fraction`` is stored as its ``int``).  Arithmetic results
  (sums, negatives, products, shifts, primitive parts, exact quotients)
  already hold these invariants and are built unchecked by
  ``Laurent._trusted``.
* ``LaurentFrac`` for the fraction field of ``Laurent``.  The denominator is
  kept as a multiset of primitive factors together with a positive integer
  content; cancellation is opportunistic (exact division against each stored
  factor) rather than via a full multivariate gcd.

A ``RingSpec`` names one of these coefficient domains and provides uniform
construction, parsing and formatting.  Values of distinct rings never mix;
binary operations raise ``CoefficientError`` on foreign operands.

Univariate polynomials over a field ``RingSpec`` are dense coefficient lists,
lowest degree first, with one toolkit for them: ``poly_trim``, ``poly_mul``,
``poly_sub``, ``poly_divmod`` and ``poly_bezout``.  It computes the
cyclotomic polynomials, inverts in ``Cyc`` through a Bezout identity against
$\Phi_e$, and builds the spectral projectors of the KLR layer.

>>> R = RingSpec.laurent(2)
>>> xi, Q1, Q2 = R.xi(), R.q(1), R.q(2)
>>> print(R.format(xi * xi.inverse_unit()))
1
>>> print(R.format(Q1 + xi ** -1))
1*Q1 + 1*xi^-1
>>> R.parse('1*Q1 + 1*xi^-1') == Q1 + xi ** -1
True
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub


# the two kinds whose values are Fractions
RATIONAL_KINDS = ("rational", "rational-specialization")


class CoefficientError(TypeError):
    """Mixed-ring operands or other coefficient misuse."""


class NonFieldDivisionError(ArithmeticError):
    """Division requested in a ring kind that is not a field."""


# ---------------------------------------------------------------------------
# dense univariate polynomials over a field RingSpec (low degree first)
# ---------------------------------------------------------------------------

def poly_trim(ring, p):
    """Drop vanishing top coefficients in place; zero is the empty list."""
    while p and ring.is_zero(p[-1]):
        p.pop()
    return p


def poly_mul(ring, p, q):
    if not p or not q:
        return []
    out = [ring.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if ring.is_zero(a):
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(ring, out)


def poly_sub(ring, p, q):
    out = list(p) + [ring.zero()] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] = out[i] - b
    return poly_trim(ring, out)


def poly_divmod(ring, p, q):
    """(quotient, remainder) of p by a nonzero trimmed q."""
    p = list(p)
    dq = len(q) - 1
    inv_lead = ring.invert(q[-1])
    quot = [ring.zero()] * max(0, len(p) - dq)
    while len(p) > dq:
        c = p[-1] * inv_lead
        shift = len(p) - 1 - dq
        quot[shift] = c
        for j, b in enumerate(q):
            p[shift + j] = p[shift + j] - c * b
        poly_trim(ring, p)
    return poly_trim(ring, quot), p


def poly_bezout(ring, f, g):
    """(u, v) with u*f + v*g = 1; raises ArithmeticError unless f and g are
    coprime."""
    r0, r1 = poly_trim(ring, list(f)), poly_trim(ring, list(g))
    u0, u1 = [ring.one()], []
    v0, v1 = [], [ring.one()]
    while r1:
        q, r2 = poly_divmod(ring, r0, r1)
        r0, r1 = r1, r2
        u0, u1 = u1, poly_sub(ring, u0, poly_mul(ring, q, u1))
        v0, v1 = v1, poly_sub(ring, v0, poly_mul(ring, q, v1))
    if len(r0) != 1:
        raise ArithmeticError("polynomials are not coprime")
    inv = ring.invert(r0[0])
    return [c * inv for c in u0], [c * inv for c in v0]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of Phi_e, lowest degree first."""
    if e < 1:
        raise ValueError("conductor must be positive")
    rationals = RingSpec.rational()
    poly = [Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]
    for d in range(1, e):
        if e % d == 0:
            poly, rem = poly_divmod(
                rationals, poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
            if rem:
                raise AssertionError("cyclotomic division must be exact")
    return tuple(int(c) for c in poly)


def euler_phi(e):
    return len(cyclotomic_polynomial(e)) - 1


def _power(base, k, one):
    """base ** k for an integer k >= 0, by square-and-multiply; no product
    with the unit and no squaring past the top bit.  ``one()`` builds the
    unit, which only k = 0 needs."""
    out = None
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return one() if out is None else out


class Cyc:
    """An element of Q(zeta_e), reduced modulo Phi_e."""

    __slots__ = ("e", "coeffs", "_hash")

    def __init__(self, e, coeffs):
        deg = euler_phi(e)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _cyc_reduce(e, cs)
        cs += [Fraction(0)] * (deg - len(cs))
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    @staticmethod
    def zeta(e, power=1):
        z = Cyc(e, [0] * (power % e) + [1])
        return z

    @staticmethod
    def from_rational(e, q):
        return Cyc(e, [Fraction(q)])

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.e, other)
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise CoefficientError("mixed cyclotomic conductors")
            return other
        raise CoefficientError(f"cannot mix Cyc with {type(other).__name__}")

    def __add__(self, other):
        o = self._check(other)
        return Cyc(self.e, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.e, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        o = self._check(other)
        prod = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        return Cyc(self.e, prod)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.e)]
        _, v = poly_bezout(RingSpec.rational(), phi, list(self.coeffs))
        return Cyc(self.e, v)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, lambda: Cyc.from_rational(self.e, 1))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (
            isinstance(other, Cyc)
            and other.e == self.e
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        # a rational value equals its Fraction and hashes like it
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.coeffs[0]) if self.is_rational()
                               else hash((self.e, self.coeffs)))
        return self._hash

    def __repr__(self):
        return f"Cyc({self.e}, {list(self.coeffs)})"


def _cyc_reduce(e, coeffs):
    phi = cyclotomic_polynomial(e)
    cs = list(coeffs)
    deg = len(phi) - 1
    while len(cs) > deg:
        c = cs.pop()
        if c:
            for j in range(deg):
                cs[len(cs) - deg + j] -= c * phi[j]
    return cs


# ---------------------------------------------------------------------------
# sparse multivariate Laurent polynomials in xi, Q_1..Q_r
# ---------------------------------------------------------------------------

def _integral(c):
    """c as an int: a Laurent coefficient must be an integer."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise ValueError("Laurent coefficients must be integers")


class Laurent:
    """Element of Z[xi^{+-1}, Q_1^{+-1}, .., Q_r^{+-1}] with r = nq."""

    __slots__ = ("nq", "terms", "_hash")

    def __init__(self, nq, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            c = _integral(c)
            if c:
                exps = tuple(exps)
                if len(exps) != nq + 1:
                    raise ValueError("exponent vector has wrong arity")
                clean[exps] = clean.get(exps, 0) + c
        _fill_laurent(self, nq, {k: v for k, v in clean.items() if v})

    @staticmethod
    def _trusted(nq, terms):
        """A value from a terms dict that already holds its invariants (int
        exponent tuples of length nq + 1, nonzero int coefficients); nothing
        is checked."""
        out = object.__new__(Laurent)
        _fill_laurent(out, nq, terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("Laurent is immutable")

    @staticmethod
    def const(nq, c):
        c = _integral(c)
        return Laurent._trusted(nq, {(0,) * (nq + 1): c} if c else {})

    @staticmethod
    def monomial(nq, exps, c=1):
        return Laurent(nq, {tuple(exps): c})

    @staticmethod
    def var_xi(nq):
        return Laurent.monomial(nq, (1,) + (0,) * nq)

    @staticmethod
    def var_q(nq, l):
        exps = [0] * (nq + 1)
        exps[l] = 1
        return Laurent.monomial(nq, exps)

    def _check(self, other):
        if isinstance(other, int):
            return Laurent.const(self.nq, other)
        if isinstance(other, Laurent):
            if other.nq != self.nq:
                raise CoefficientError("mixed Laurent variable sets")
            return other
        raise CoefficientError(f"cannot mix Laurent with {type(other).__name__}")

    def __add__(self, other):
        o = self._check(other)
        terms = dict(self.terms)
        for k, v in o.terms.items():
            v += terms.get(k, 0)
            if v:
                terms[k] = v
            else:
                del terms[k]
        return Laurent._trusted(self.nq, terms)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._trusted(self.nq, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            return Laurent._trusted(
                self.nq, {k: v * other for k, v in self.terms.items()} if other else {})
        o = self._check(other)
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in o.terms.items():
                k = tuple(map(add, k1, k2))
                terms[k] = terms.get(k, 0) + v1 * v2
        return Laurent._trusted(self.nq, {k: v for k, v in terms.items() if v})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse_unit() ** (-k)
        return _power(self, k, lambda: Laurent.const(self.nq, 1))

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        if len(self.terms) != 1:
            return False
        return abs(next(iter(self.terms.values()))) == 1

    def inverse_unit(self):
        if not self.is_unit():
            raise NonFieldDivisionError("only monomial units invert in the Laurent ring")
        (exps, c), = self.terms.items()
        return Laurent._trusted(self.nq, {tuple(map(neg, exps)): c})

    def content(self):
        return math.gcd(*[abs(c) for c in self.terms.values()]) if self.terms else 0

    def min_exponents(self):
        if not self.terms:
            return tuple([0] * (self.nq + 1))
        return tuple(map(min, zip(*self.terms)))

    def shift(self, exps):
        exps = tuple(exps)
        if len(exps) != self.nq + 1:
            raise ValueError("exponent vector has wrong arity")
        return Laurent._trusted(
            self.nq, {tuple(map(add, k, exps)): v for k, v in self.terms.items()})

    def primitive(self):
        """(content-and-sign-free part, integer scale) with scale*part == self."""
        if self.is_zero():
            return self, 1
        c = self.content()
        lead = self.terms[max(self.terms)]
        if lead < 0:
            c = -c
        return Laurent._trusted(self.nq, {k: v // c for k, v in self.terms.items()}), c

    def specialize(self, values, one):
        """Evaluate at values = (xi, Q_1, .., Q_r) living in some target ring."""
        if len(values) != self.nq + 1:
            raise ValueError("need one value per variable")
        zero = one - one
        if any(v == zero for v in values):
            raise ValueError("specialization values must be units")
        out = one - one
        for exps, c in sorted(self.terms.items()):
            term = one * c
            for v, a in zip(values, exps):
                term = term * v ** a
            out = out + term
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.const(self.nq, other)
        return (
            isinstance(other, Laurent)
            and other.nq == self.nq
            and other.terms == self.terms
        )

    def __hash__(self):
        # a constant equals its int and hashes like it
        if self._hash is None:
            terms, origin = self.terms, (0,) * (self.nq + 1)
            object.__setattr__(
                self, "_hash", hash(terms.get(origin, 0)) if terms.keys() <= {origin}
                else hash((self.nq, frozenset(terms.items())))
            )
        return self._hash

    def __repr__(self):
        return f"Laurent({self.nq}, {self.terms})"


def _fill_laurent(out, nq, terms):
    object.__setattr__(out, "nq", nq)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "_hash", None)


def invert_unit(v):
    """The inverse of a unit: ``inverse_unit`` in the Laurent ring, where
    ``1 / v`` would leave it, and ``1 / v`` in every field."""
    if isinstance(v, Laurent):
        return v.inverse_unit()
    return 1 / v


def laurent_try_divide(num, den):
    """Exact quotient num/den in the Laurent ring, or None.

    Division with remainder against a single divisor, lex term order after
    clearing negative exponents, in integers: each step writes one quotient
    coefficient, so a step that does not divide exactly, or a leading term
    that the divisor's does not divide, means no quotient in the ring.
    """
    if den.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    if num.is_zero():
        return num
    shift_n = num.min_exponents()
    shift_d = den.min_exponents()
    n = {tuple(map(sub, k, shift_n)): v for k, v in num.terms.items()}
    d = {tuple(map(sub, k, shift_d)): v for k, v in den.terms.items()}
    lead_d = max(d)
    lead_c = d[lead_d]
    quot = {}
    while n:
        lead_n = max(n)
        exps = tuple(map(sub, lead_n, lead_d))
        if min(exps) < 0:
            return None
        c, rem = divmod(n[lead_n], lead_c)
        if rem:
            return None
        quot[exps] = c
        for k, v in d.items():
            kk = tuple(map(add, k, exps))
            nv = n.get(kk, 0) - c * v
            if nv:
                n[kk] = nv
            else:
                del n[kk]
    back = tuple(map(sub, shift_n, shift_d))
    return Laurent._trusted(
        num.nq, {tuple(map(add, k, back)): v for k, v in quot.items()})


class LaurentFrac:
    """Fraction num / (scale * prod f^m) over the Laurent ring.

    Denominator factors are primitive Laurent polynomials; ``scale`` is a
    positive integer.  Cancellation tries exact division of the numerator by
    each stored factor, which recovers every quotient the seminormal and
    class-polynomial computations produce without a multivariate gcd.
    """

    __slots__ = ("num", "scale", "factors", "_hash")

    def __init__(self, num, scale=1, factors=None):
        factors = dict(factors or {})
        if scale < 0:
            scale, num = -scale, -num
        if scale == 0:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            scale, factors = 1, {}
        else:
            # cancel stored factors against the numerator where possible
            for f in list(factors):
                while factors.get(f, 0) > 0:
                    q = laurent_try_divide(num, f)
                    if q is None:
                        break
                    num = q
                    factors[f] -= 1
                if factors.get(f, 0) == 0:
                    factors.pop(f, None)
            g = math.gcd(num.content(), scale)
            if g > 1:
                num = Laurent._trusted(num.nq, {k: v // g for k, v in num.terms.items()})
                scale //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("LaurentFrac is immutable")

    @property
    def nq(self):
        return self.num.nq

    @staticmethod
    def const(nq, c):
        c = Fraction(c)
        return LaurentFrac(Laurent.const(nq, c.numerator), c.denominator)

    def den_poly(self):
        out = Laurent.const(self.nq, self.scale)
        for f, m in self.factors.items():
            for _ in range(m):
                out = out * f
        return out

    def _check(self, other):
        if isinstance(other, LaurentFrac):
            if other.nq != self.nq:
                raise CoefficientError("mixed Laurent variable sets")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentFrac.const(self.nq, other)
        if isinstance(other, Laurent):
            if other.nq != self.nq:
                raise CoefficientError("mixed Laurent variable sets")
            return LaurentFrac(other)
        raise CoefficientError(f"cannot mix LaurentFrac with {type(other).__name__}")

    def __add__(self, other):
        o = self._check(other)
        # common denominator: factorwise max multiplicities, lcm of scales
        keys = set(self.factors) | set(o.factors)
        num1, num2 = self.num, o.num
        for f in keys:
            m1, m2 = self.factors.get(f, 0), o.factors.get(f, 0)
            m = max(m1, m2)
            for _ in range(m - m1):
                num1 = num1 * f
            for _ in range(m - m2):
                num2 = num2 * f
        lcm = self.scale * o.scale // math.gcd(self.scale, o.scale)
        num = num1 * (lcm // self.scale) + num2 * (lcm // o.scale)
        return LaurentFrac(
            num, lcm, {f: max(self.factors.get(f, 0), o.factors.get(f, 0)) for f in keys}
        )

    __radd__ = __add__

    def __neg__(self):
        return LaurentFrac(-self.num, self.scale, self.factors)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + self._check(other)

    def __mul__(self, other):
        o = self._check(other)
        factors = dict(self.factors)
        for f, m in o.factors.items():
            factors[f] = factors.get(f, 0) + m
        return LaurentFrac(self.num * o.num, self.scale * o.scale, factors)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num = Laurent.const(self.nq, self.scale)
        for f, m in self.factors.items():
            for _ in range(m):
                num = num * f
        prim, c = self.num.primitive()
        if c < 0:
            num, c = -num, -c
        return LaurentFrac(num, 1, {prim: 1}) * LaurentFrac.const(self.nq, Fraction(1, c)) \
            if not prim.is_unit() else LaurentFrac(num * prim.inverse_unit(), c)

    def __truediv__(self, other):
        return self * self._check(other).inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, lambda: LaurentFrac.const(self.nq, 1))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return not self.factors and self.scale == 1

    def as_laurent(self):
        """The underlying Laurent polynomial; requires a denominator-free value."""
        if not self.factors and self.scale == 1:
            return self.num
        # last resort: a single monomial-times-content denominator is a unit
        den = self.den_poly()
        q = laurent_try_divide(self.num, den)
        if q is None:
            raise NonFieldDivisionError("value has a nontrivial denominator")
        return q

    def __eq__(self, other):
        try:
            o = self._check(other)
        except CoefficientError:
            return NotImplemented
        return (self.num * o.den_poly()) == (o.num * self.den_poly())

    def _extreme_term(self, pick):
        """The lex-``pick`` (max or min) term of the numerator over that of
        the denominator, as (exponent difference, coefficient ratio)."""
        exps = pick(self.num.terms)
        coeff = Fraction(self.num.terms[exps], self.scale)
        for f, m in self.factors.items():
            ext = pick(f.terms)
            exps = tuple(a - m * b for a, b in zip(exps, ext))
            coeff /= f.terms[ext] ** m
        return exps, coeff

    def __hash__(self):
        # extreme terms multiply under products, so a d = c b makes these
        # ratios equal for every representation a/b = c/d of one value;
        # when both are (zero exponent, c) the value is the constant c, and
        # it hashes like the Fraction c it equals
        if self._hash is None:
            if self.is_zero():
                h = hash(0)
            else:
                lead, trail = self._extreme_term(max), self._extreme_term(min)
                h = hash(lead[1]) if lead == trail and not any(lead[0]) \
                    else hash((self.nq, lead, trail))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def __repr__(self):
        return f"LaurentFrac({self.num!r}, {self.scale}, {self.factors})"


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------

_VAR_NAMES_CACHE = {}


def _var_names(nq):
    if nq not in _VAR_NAMES_CACHE:
        _VAR_NAMES_CACHE[nq] = ("xi",) + tuple(f"Q{l}" for l in range(1, nq + 1))
    return _VAR_NAMES_CACHE[nq]


class RingSpec:
    """A named coefficient domain: construction, formatting, parsing."""

    KINDS = ("rational", "cyclotomic", "laurent", "fraction-of-laurent",
             "rational-specialization")

    def __init__(self, kind, e=0, nq=0, specialization=None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown ring kind {kind!r}")
        self.kind = kind
        self.e = e
        self.nq = nq
        self.specialization = specialization

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational():
        return RingSpec("rational")

    @staticmethod
    def cyclotomic(e):
        return RingSpec("cyclotomic", e=e)

    @staticmethod
    def laurent(nq):
        return RingSpec("laurent", nq=nq)

    @staticmethod
    def fraction(nq):
        return RingSpec("fraction-of-laurent", nq=nq)

    @staticmethod
    def specialized(xi, qs):
        vals = (Fraction(xi),) + tuple(Fraction(q) for q in qs)
        if any(v == 0 for v in vals):
            raise ValueError("specialization values must be invertible")
        return RingSpec("rational-specialization", nq=len(qs), specialization=vals)

    # -- properties --------------------------------------------------------

    @property
    def is_field(self):
        return self.kind != "laurent"

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and (self.kind, self.e, self.nq, self.specialization)
            == (other.kind, other.e, other.nq, other.specialization)
        )

    def __repr__(self):
        extra = {"cyclotomic": f"(e={self.e})",
                 "laurent": f"(r={self.nq})",
                 "fraction-of-laurent": f"(r={self.nq})"}.get(self.kind, "")
        return f"RingSpec<{self.kind}{extra}>"

    # -- elements ----------------------------------------------------------

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        if self.kind in RATIONAL_KINDS:
            return Fraction(k)
        if self.kind == "cyclotomic":
            return Cyc.from_rational(self.e, k)
        if self.kind == "laurent":
            return Laurent.const(self.nq, k)
        return LaurentFrac.const(self.nq, k)

    def xi(self):
        if self.kind == "laurent":
            return Laurent.var_xi(self.nq)
        if self.kind == "fraction-of-laurent":
            return LaurentFrac(Laurent.var_xi(self.nq))
        if self.kind == "rational-specialization":
            return self.specialization[0]
        raise CoefficientError("ring has no distinguished Hecke parameter")

    def q(self, l):
        if not 1 <= l <= self.nq:
            raise CoefficientError("cyclotomic parameter index out of range")
        if self.kind == "laurent":
            return Laurent.var_q(self.nq, l)
        if self.kind == "fraction-of-laurent":
            return LaurentFrac(Laurent.var_q(self.nq, l))
        return self.specialization[l]

    def contains(self, value):
        want = {
            "rational": Fraction,
            "rational-specialization": Fraction,
            "cyclotomic": Cyc,
            "laurent": Laurent,
            "fraction-of-laurent": LaurentFrac,
        }[self.kind]
        if not isinstance(value, want):
            return False
        if isinstance(value, Cyc):
            return value.e == self.e
        if isinstance(value, (Laurent, LaurentFrac)):
            return value.nq == self.nq
        return True

    def check(self, value):
        if not self.contains(value):
            raise CoefficientError(f"{value!r} does not belong to {self!r}")
        return value

    def is_zero(self, value):
        """Zero test for a ring value, or over Q for an ``int``: the
        straightening tables keep their integral constants as ints.  The
        tests are on the exact type: ``isinstance`` against ``Fraction``
        goes through the ``numbers`` ABC for every other type."""
        if type(value) is Fraction:
            return value == 0
        if type(value) is int:
            return not value
        return value.is_zero()

    def div(self, a, b):
        self.check(a), self.check(b)
        if self.is_zero(b):
            raise ZeroDivisionError("division by zero coefficient")
        if self.kind == "laurent":
            raise NonFieldDivisionError(
                "division requested in the Laurent ring; use the fraction field")
        return a / b

    def invert(self, a):
        return self.div(self.one(), a)

    # -- textual serialization --------------------------------------------

    def format(self, value):
        self.check(value)
        if isinstance(value, Fraction):
            return _format_fraction(value)
        if isinstance(value, Cyc):
            return _format_cyc(value)
        if isinstance(value, Laurent):
            return _format_laurent(value)
        den = value.den_poly()
        if den == Laurent.const(value.nq, 1):
            return _format_laurent(value.num)
        return f"({_format_laurent(value.num)})/({_format_laurent(den)})"

    def parse(self, text):
        text = text.strip()
        if self.kind in RATIONAL_KINDS:
            return Fraction(text)
        if self.kind == "cyclotomic":
            return _parse_cyc(self.e, text)
        if self.kind == "laurent":
            return _parse_laurent(self.nq, text)
        if text.startswith("(") and ")/(" in text:
            num_s, den_s = text[1:-1].split(")/(")
            num = _parse_laurent(self.nq, num_s)
            den = _parse_laurent(self.nq, den_s)
            return LaurentFrac(num) / LaurentFrac(den)
        return LaurentFrac(_parse_laurent(self.nq, text))


def _format_fraction(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _format_monomial(coeff, exps, names):
    parts = [str(coeff) if isinstance(coeff, int) else _format_fraction(coeff)]
    for name, a in zip(names, exps):
        if a == 1:
            parts.append(name)
        elif a:
            parts.append(f"{name}^{a}")
    return "*".join(parts)


def _format_laurent(p):
    if p.is_zero():
        return "0"
    names = _var_names(p.nq)
    return " + ".join(
        _format_monomial(p.terms[k], k, names) for k in sorted(p.terms, reverse=True)
    )


def _format_cyc(z):
    if z.is_zero():
        return "0"
    parts = []
    for a, c in reversed(list(enumerate(z.coeffs))):
        if c:
            parts.append(_format_monomial(c, (a,), ("z",)))
    return " + ".join(parts)


def _parse_signed_monomial(token, names):
    coeff = Fraction(1)
    exps = [0] * len(names)
    for piece in token.split("*"):
        piece = piece.strip()
        if not piece:
            continue
        if "^" in piece:
            base, _, exp = piece.partition("^")
            base = base.strip()
            if base not in names:
                raise ValueError(f"unknown variable {base!r}")
            exps[names.index(base)] += int(exp)
        elif piece in names:
            exps[names.index(piece)] += 1
        else:
            coeff *= Fraction(piece)
    return coeff, tuple(exps)


def _parse_laurent(nq, text):
    text = text.strip()
    if text == "0":
        return Laurent(nq, {})
    names = _var_names(nq)
    out = Laurent(nq, {})
    for token in text.split(" + "):
        coeff, exps = _parse_signed_monomial(token, names)
        if coeff.denominator != 1:
            raise ValueError("Laurent coefficients must be integers")
        out = out + Laurent.monomial(nq, exps, coeff.numerator)
    return out


def _parse_cyc(e, text):
    text = text.strip()
    if text == "0":
        return Cyc.from_rational(e, 0)
    out = Cyc.from_rational(e, 0)
    for token in text.split(" + "):
        coeff, exps = _parse_signed_monomial(token, ("z",))
        out = out + Cyc(e, [0] * (exps[0] % e) + [coeff])
    return out


def elementary_symmetric(values, m, one):
    """e_m of a list of ring values (e_0 = 1)."""
    if m < 0 or m > len(values):
        return one - one
    # dynamic programming over prefixes
    row = [one] + [one - one] * m
    for v in values:
        for j in range(min(m, len(row) - 1), 0, -1):
            row[j] = row[j] + row[j - 1] * v
    return row[m]
