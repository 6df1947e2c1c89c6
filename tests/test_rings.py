import doctest
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohecke.rings import (
    CoefficientError,
    Cyc,
    Laurent,
    LaurentFrac,
    NonFieldDivisionError,
    RingSpec,
    cyclotomic_polynomial,
    elementary_symmetric,
    invert_unit,
    laurent_try_divide,
    poly_bezout,
    poly_divmod,
    poly_mul,
    poly_sub,
)


def test_rational_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_polynomials_multiply_to_x_e_minus_1():
    Q = RingSpec.rational()
    for e in range(1, 13):
        prod = [Fraction(1)]
        for d in range(1, e + 1):
            if e % d == 0:
                prod = poly_mul(Q, prod, [Fraction(c) for c in cyclotomic_polynomial(d)])
        assert prod == [-1] + [0] * (e - 1) + [1]


@pytest.mark.parametrize("ring", [RingSpec.rational(), RingSpec.cyclotomic(3)])
def test_bezout_identity(ring):
    rng = random.Random(3)
    c = ring.from_int if ring.kind == "rational" else \
        (lambda k: Cyc(3, [k, rng.randint(-2, 2)]))
    one = ring.one()
    for _ in range(10):
        roots = rng.sample(range(-6, 7), 5)
        f = [one]
        for v in roots[:3]:
            f = poly_mul(ring, f, [c(-v), one])
        g = [c(rng.randint(1, 4))]
        for v in roots[3:]:
            g = poly_mul(ring, g, [ring.from_int(-v), one])
        u, v = poly_bezout(ring, f, g)
        assert poly_sub(ring, [one], poly_mul(ring, u, f)) == poly_mul(ring, v, g)
        quot, rem = poly_divmod(ring, poly_mul(ring, f, g), g)
        assert not rem and quot == f


def test_bezout_rejects_common_factor():
    Q = RingSpec.rational()
    one = Fraction(1)
    common = [Fraction(-2), one]
    f = poly_mul(Q, common, [one, one])
    g = poly_mul(Q, common, [one, Fraction(3), one])
    with pytest.raises(ArithmeticError):
        poly_bezout(Q, f, g)


def test_powers_match_repeated_products():
    cyc = Cyc(5, [1, 2, 0, -1])
    lau = Laurent(2, {(1, 0, 0): 2, (0, -1, 1): -1})
    frac = LaurentFrac(Laurent.var_xi(2)) + LaurentFrac(Laurent.var_q(2, 1))
    for x, one, inv in [(cyc, Cyc.from_rational(5, 1), cyc.inverse()),
                        (Laurent.var_xi(2), Laurent.const(2, 1),
                         Laurent.var_xi(2).inverse_unit()),
                        (lau, Laurent.const(2, 1), None),
                        (frac, LaurentFrac.const(2, 1), frac.inverse())]:
        want = one
        for k in range(9):
            assert x ** k == want, (x, k)
            if inv is not None:
                assert inv ** k == x ** -k
            want = want * x


def test_zeta2_embeds_rationals():
    z = Cyc.zeta(2)
    assert z * z == 1
    assert z == -1
    a = Cyc.from_rational(2, Fraction(3, 4))
    b = Cyc.from_rational(2, Fraction(-2, 5))
    assert a + b == Fraction(3, 4) + Fraction(-2, 5)
    assert a * b == Fraction(3, 4) * Fraction(-2, 5)
    assert a / b == Fraction(3, 4) / Fraction(-2, 5)


def test_zeta_orders():
    for e in (2, 3, 4, 5, 6):
        z = Cyc.zeta(e)
        assert z ** e == 1
        total = Cyc.from_rational(e, 0)
        power = Cyc.from_rational(e, 1)
        for _ in range(e):
            total = total + power
            power = power * z
        if e > 1:
            assert total.is_zero()
        assert z.inverse() * z == 1
        assert 1 / (-z) == -(z ** (e - 1))


def test_laurent_basics():
    R = RingSpec.laurent(2)
    xi, q1, q2 = R.xi(), R.q(1), R.q(2)
    assert xi * xi.inverse_unit() == R.one()
    assert (xi + q1) - q1 == xi
    assert (q2 * q2.inverse_unit()) == R.one()
    with pytest.raises(NonFieldDivisionError):
        R.div(xi + q1, q1)
    with pytest.raises(ZeroDivisionError):
        R.div(xi, R.zero())


def test_laurent_specialize_is_hom():
    R = RingSpec.laurent(2)
    xi, q1, q2 = R.xi(), R.q(1), R.q(2)
    rng = random.Random(0)
    vals = (Fraction(2), Fraction(3), Fraction(-5))
    one = Fraction(1)
    for _ in range(25):
        a = Laurent(2, {(rng.randint(-2, 2), rng.randint(-1, 2), rng.randint(-1, 2)):
                        rng.randint(-4, 4) for _ in range(3)})
        b = Laurent(2, {(rng.randint(-2, 2), rng.randint(-1, 2), rng.randint(-1, 2)):
                        rng.randint(-4, 4) for _ in range(3)})
        assert (a * b).specialize(vals, one) == \
            a.specialize(vals, one) * b.specialize(vals, one)
        assert (a + b).specialize(vals, one) == \
            a.specialize(vals, one) + b.specialize(vals, one)
    # evaluation examples
    assert (xi + q1).specialize((Fraction(2), Fraction(1), Fraction(7)), one) == 3
    assert (xi ** -1).specialize((Fraction(2), Fraction(1), Fraction(1)), one) \
        == Fraction(1, 2)
    assert (q1 + q2).specialize((Fraction(2), Fraction(1), Fraction(-1)), one) == 0


def test_module_doctests():
    from cyclohecke import rings
    result = doctest.testmod(rings)
    assert (result.attempted, result.failed) == (5, 0)


def test_exact_division():
    R = RingSpec.laurent(1)
    xi = R.xi()
    assert laurent_try_divide(xi * xi - 1, xi - 1) == xi + 1
    assert laurent_try_divide(xi * xi - 1, xi + 2) is None
    q1 = R.q(1)
    assert laurent_try_divide((xi - q1) * (xi + q1) * q1, xi - q1) \
        == (xi + q1) * q1


def test_laurent_coefficients_must_be_integers():
    for build in (lambda: Laurent(1, {(0, 0): Fraction(1, 2)}),
                  lambda: Laurent.const(1, Fraction(1, 2)),
                  lambda: Laurent.monomial(1, (1, 0), Fraction(-3, 2)),
                  lambda: Laurent.const(1, 0.5)):
        with pytest.raises(ValueError, match="Laurent coefficients must be integers"):
            build()
    # integral Fractions are stored as ints, so == and hash do not change
    v = Laurent(1, {(0, 0): Fraction(3), (1, 0): Fraction(-2, 1), (0, 1): Fraction(0)})
    assert all(type(c) is int for c in v.terms.values())
    assert v == Laurent(1, {(0, 0): 3, (1, 0): -2})
    assert hash(v) == hash(Laurent(1, {(0, 0): 3, (1, 0): -2}))
    assert RingSpec.laurent(1).contains(v)
    c = Laurent.const(1, Fraction(4))
    assert c.terms == {(0, 0): 4} and c == 4 and hash(c) == hash(4)
    assert Laurent.monomial(1, (1, 0), Fraction(-2)).terms == {(1, 0): -2}


def test_fraction_field():
    F = RingSpec.fraction(2)
    xi, q1, q2 = F.xi(), F.q(1), F.q(2)
    v = (xi * xi - 1) / (xi - 1)
    assert v == xi + 1 and v.is_polynomial()
    assert q2 / q2 == F.one()
    assert F.div(F.one(), -F.one()) == -F.one()
    w = F.one() / (xi - q1)
    assert w * (xi - q1) == F.one()
    assert ((xi - q1) * (xi + q2)) / (xi - q1) == xi + q2


def test_ring_axioms_randomized():
    rng = random.Random(1)
    specs = [
        RingSpec.rational(),
        RingSpec.cyclotomic(3),
        RingSpec.laurent(2),
        RingSpec.fraction(1),
    ]

    def sample(ring):
        if ring.kind == "rational":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if ring.kind == "cyclotomic":
            return Cyc(ring.e, [rng.randint(-3, 3) for _ in range(2)])
        if ring.kind == "laurent":
            return Laurent(ring.nq, {
                (rng.randint(-2, 2),) + tuple(rng.randint(-1, 1)
                                              for _ in range(ring.nq)):
                rng.randint(-3, 3) for _ in range(2)})
        return LaurentFrac(Laurent(ring.nq, {
            (rng.randint(-1, 1),) * (ring.nq + 1): rng.randint(1, 3)}),
            rng.randint(1, 3))

    for ring in specs:
        one, zero = ring.one(), ring.zero()
        for _ in range(20):
            a, b, c = sample(ring), sample(ring), sample(ring)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a


@pytest.mark.parametrize("ring,value", [
    (RingSpec.rational(), Fraction(-3, 7)),
    (RingSpec.cyclotomic(5), Cyc.zeta(5, 2) + 1),
    (RingSpec.laurent(2), Laurent.monomial(2, (1, -2, 0), -1)),
    (RingSpec.fraction(2), LaurentFrac(Laurent.var_xi(2) + Laurent.var_q(2, 1))),
], ids=["rational", "cyclotomic", "laurent", "fraction"])
def test_invert_unit_in_every_ring_kind(ring, value):
    inv = invert_unit(value)
    assert ring.contains(inv)
    assert value * inv == ring.one()
    if ring.is_field:
        assert inv == ring.invert(value)


def test_mixed_rings_rejected():
    with pytest.raises(CoefficientError):
        Cyc.zeta(3) + Cyc.zeta(4)
    with pytest.raises(CoefficientError):
        Laurent.var_xi(1) + Laurent.var_xi(2)


def test_specialized_ring_requires_units():
    with pytest.raises(ValueError):
        RingSpec.specialized(0, [1])
    with pytest.raises(ValueError):
        RingSpec.specialized(2, [1, 0])


@pytest.mark.parametrize("kind,values", [
    ("rational", ["5", "-7/3", "0"]),
    ("cyclotomic", ["z", "1/2*z^2 + -1", "0"]),
    ("laurent", ["1*xi^-1 + 1*Q1", "-3*xi^2*Q2^-1", "0", "4"]),
])
def test_serialization_round_trip(kind, values):
    ring = {"rational": RingSpec.rational(),
            "cyclotomic": RingSpec.cyclotomic(3),
            "laurent": RingSpec.laurent(2)}[kind]
    for text in values:
        v = ring.parse(text)
        assert ring.parse(ring.format(v)) == v


@pytest.mark.parametrize("e", [3, 4])
def test_cyclotomic_parse_reduces_every_exponent(e):
    ring, zeta = RingSpec.cyclotomic(e), Cyc.zeta(e)
    for c in (1, -1, 2, Fraction(-3, 5)):
        for k in range(-2 * e, 2 * e + 1):
            assert ring.parse(f"{c}*z^{k}") == c * zeta ** k, (c, k)


def test_fraction_serialization_round_trip():
    F = RingSpec.fraction(1)
    xi, q1 = F.xi(), F.q(1)
    for v in [xi / (xi - q1), F.one(), (xi + 1) / (q1 * 2)]:
        assert F.parse(F.format(v)) == v


def test_elementary_symmetric():
    vals = [Fraction(1), Fraction(2), Fraction(3)]
    assert elementary_symmetric(vals, 0, Fraction(1)) == 1
    assert elementary_symmetric(vals, 1, Fraction(1)) == 6
    assert elementary_symmetric(vals, 2, Fraction(1)) == 11
    assert elementary_symmetric(vals, 3, Fraction(1)) == 6


def test_fraction_hash_ignores_representation():
    R = RingSpec.laurent(1)
    xi, q1 = R.xi(), R.q(1)
    f1, f2, g = xi + 3 * q1, xi - q1, xi * xi + 2
    a = LaurentFrac(f1 * g, 1, {f1 * f2: 1})
    b = LaurentFrac(g, 1, {f2: 1})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


_RINGS = [RingSpec.rational(), RingSpec.cyclotomic(3), RingSpec.laurent(1),
          RingSpec.fraction(1), RingSpec.specialized(2, [1, 100])]
_small = st.integers(-3, 3)


def _laurent(nq):
    exps = st.tuples(*[st.integers(-1, 2)] * (nq + 1))
    return st.dictionaries(exps, _small, max_size=3).map(lambda t: Laurent(nq, t))


def _element(ring):
    if ring.kind in ("rational", "rational-specialization"):
        return st.fractions(min_value=-5, max_value=5, max_denominator=4)
    if ring.kind == "cyclotomic":
        return st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                        max_size=3).map(lambda cs: Cyc(ring.e, cs))
    if ring.kind == "laurent":
        return _laurent(ring.nq)
    nonzero = _laurent(ring.nq).filter(lambda p: not p.is_zero())
    return st.tuples(_laurent(ring.nq), nonzero).map(
        lambda nd: LaurentFrac(nd[0]) / LaurentFrac(nd[1]))


@pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.kind)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms_and_hash_consistency(ring, data):
    a, b, c = (data.draw(_element(ring)) for _ in range(3))
    zero, one = ring.zero(), ring.one()
    equal_pairs = [
        ((a + b) + c, a + (b + c)),
        (a + b, b + a),
        ((a * b) * c, a * (b * c)),
        (a * b, b * a),
        (a * (b + c), a * b + a * c),
        (a + zero, a),
        (a * one, a),
        (a - a, zero),
    ]
    if ring.is_field and not ring.is_zero(b):
        equal_pairs.append(((a * b) / b, a))
        if not ring.is_zero(c):
            equal_pairs.append(((a * c) / (b * c), a / b))
    for x, y in equal_pairs:
        assert x == y
        assert hash(x) == hash(y)


def _constant(ring, c):
    """The constant c of the ring; the Laurent ring has integer constants."""
    if ring.kind == "cyclotomic":
        return Cyc.from_rational(ring.e, c)
    if ring.kind == "laurent":
        return Laurent.const(ring.nq, c)
    if ring.kind == "fraction-of-laurent":
        return LaurentFrac.const(ring.nq, c)
    return Fraction(c)


def test_constants_hash_like_integers_example():
    assert len({Cyc.from_rational(3, 5), 5}) == 1
    assert len({Laurent.const(1, 5), 5}) == 1
    assert len({LaurentFrac.const(1, 5), 5}) == 1


@pytest.mark.parametrize("ring", _RINGS, ids=lambda r: r.kind)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_constants_hash_like_rationals(ring, data):
    integral = ring.kind == "laurent"
    c = Fraction(data.draw(_small if integral else
                           st.fractions(min_value=-5, max_value=5, max_denominator=4)))
    p = data.draw(_element(ring).filter(lambda v: not ring.is_zero(v)))
    x = _constant(ring, int(c) if integral else c)
    # the same constant reached through arithmetic, in another representation
    y = x + p - p if integral else (x * p) / p
    for value in (x, y):
        if not integral:
            assert value == c and hash(value) == hash(c) and len({value, c}) == 1
        if c.denominator == 1:
            k = int(c)
            assert value == k and hash(value) == hash(k) and len({value, k}) == 1


def _assert_canonical(x, nq):
    """x is the value the validating constructor builds from its terms: no
    zero coefficient, int coefficients, int exponent tuples of length nq+1."""
    ref = Laurent(nq, dict(x.terms))
    assert x == ref and hash(x) == hash(ref)
    assert all(type(v) is int and v for v in x.terms.values())
    assert all(type(k) is tuple and len(k) == nq + 1 and all(type(a) is int for a in k)
               for k in x.terms)


def _unchecked_results(nq, a, b, k, e):
    results = [a + b, a - b, -a, a * b, a * k, k * a, a.shift(e), a.primitive()[0],
               Laurent.const(nq, k)]
    if not b.is_zero():
        q = laurent_try_divide(a * b, b)
        assert q == a
        results.append(q)
    for x in results:
        _assert_canonical(x, nq)


@pytest.mark.parametrize("nq", [0, 1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_unchecked_results_are_canonical(nq, data):
    a, b = data.draw(_laurent(nq)), data.draw(_laurent(nq))
    k = data.draw(_small)
    e = data.draw(st.tuples(*[st.integers(-2, 2)] * (nq + 1)))
    _unchecked_results(nq, a, b, k, e)


def test_unchecked_results_drop_cancelled_terms():
    xi, q1 = Laurent.var_xi(1), Laurent.var_q(1, 1)
    # (xi + 1) + (xi - 1) and (xi + 1)(xi - 1) cancel a key each
    _unchecked_results(1, xi + 1, xi - 1, 0, (1, -1))
    _unchecked_results(1, xi - q1, xi + q1, -2, (0, 2))
    assert ((xi + 1) * (xi - 1)).terms == {(2, 0): 1, (0, 0): -1}
    assert ((xi + 1) + (1 - xi)).terms == {(0, 0): 2}


def _fraction_try_divide(num, den):
    """Long division over Fraction, accepting only an integral quotient: the
    reference for laurent_try_divide."""
    if den.is_zero():
        raise ZeroDivisionError("Laurent division by zero")
    if num.is_zero():
        return num
    shift_n = num.min_exponents()
    shift_d = den.min_exponents()
    n = {tuple(a - b for a, b in zip(k, shift_n)): Fraction(v) for k, v in num.terms.items()}
    d = {tuple(a - b for a, b in zip(k, shift_d)): v for k, v in den.terms.items()}
    lead_d = max(d)
    quot = {}
    while n:
        lead_n = max(n)
        exps = tuple(a - b for a, b in zip(lead_n, lead_d))
        if any(a < 0 for a in exps):
            return None
        c = n[lead_n] / d[lead_d]
        quot[exps] = c
        for k, v in d.items():
            kk = tuple(a + b for a, b in zip(k, exps))
            nv = n.get(kk, Fraction(0)) - c * v
            if nv:
                n[kk] = nv
            else:
                n.pop(kk, None)
    if any(c.denominator != 1 for c in quot.values()):
        return None
    back = tuple(a - b for a, b in zip(shift_n, shift_d))
    return Laurent(num.nq, {k: int(v) for k, v in quot.items()}).shift(back)


@pytest.mark.parametrize("nq", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_try_divide_matches_fraction_long_division(nq, data):
    a = data.draw(_laurent(nq))
    b = data.draw(_laurent(nq).filter(lambda p: not p.is_zero()))
    c = data.draw(_laurent(nq).filter(lambda p: not p.is_zero()))
    k = data.draw(st.sampled_from([2, 3, -2, -4]))
    # random pairs, exact quotients, and rational quotients a/k that are not
    # integral unless k divides the content of a
    for num, den in [(a, b), (a * b, b), (a * b * c, b * c), (a * b, b * k),
                     (a * b * c, b * k), (-a * b, b)]:
        want = _fraction_try_divide(num, den)
        got = laurent_try_divide(num, den)
        assert got == want
        if got is not None:
            _assert_canonical(got, nq)


def test_try_divide_rejects_rational_quotients():
    xi, q1 = Laurent.var_xi(1), Laurent.var_q(1, 1)
    assert laurent_try_divide(xi + 1, 2 * xi + 2) is None
    assert laurent_try_divide(3 * xi * xi - 3, -3 * xi + 3) == -xi - 1
    assert laurent_try_divide((xi - q1) * 2, (xi - q1) * 4) is None
    assert _fraction_try_divide(xi + 1, 2 * xi + 2) is None
