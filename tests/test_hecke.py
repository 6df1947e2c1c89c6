import gc
import itertools
import random
import weakref

import pytest
from fractions import Fraction

from conftest import fraction_context, laurent_context, spec_context

from cyclohecke.group import (
    GroupParams,
    coxeter_word,
    enumerate_group,
    length,
    reduced_words,
)
from cyclohecke.hecke import (
    HeckeElement,
    HeckeError,
    _rmul_gen_index,
    _star_index,
    _terms_lmul,
    jm_polynomial,
    m_basis,
    m_tt,
    t_element,
    t_perm,
    word_product,
    young_subgroup,
)
from cyclohecke.linalg import SubspaceBasis, invert_matrix
from cyclohecke.seminormal import SeminormalData, _mat_diag, _mat_mul
from cyclohecke.tableaux import enumerate_multipartitions, standard_tableaux


def test_generators_and_jm(ctx22_sym):
    ctx = ctx22_sym
    T0, T1 = ctx.generator(0), ctx.generator(1)
    one = ctx.one()
    assert ctx.jm(1) == T0
    assert T1 * T1 == T1.scale(ctx.xi - ctx.ring.one()) + one.scale(ctx.xi)
    jm2 = ctx.jm(2)
    assert jm2 * ctx.jm(1) == ctx.jm(1) * jm2
    # the palindromic word resolves to the basis form
    word = (1, 0, 1)
    assert word_product(ctx, word).scale(ctx.xi_inv) == jm2


def test_cyclotomic_straightening(ctx22_sym):
    ctx = ctx22_sym
    T0 = ctx.generator(0)
    one = ctx.one()
    q1, q2 = ctx.qs
    assert T0 * T0 == T0.scale(q1 + q2) - one.scale(q1 * q2)


def test_type_b_braid(ctx22_sym):
    ctx = ctx22_sym
    T0, T1 = ctx.generator(0), ctx.generator(1)
    assert (T1 * T0 * T1) * T0 == T0 * (T1 * T0 * T1)


def test_unit_and_mixed_contexts(ctx22_sym, ctx22_spec):
    x = ctx22_sym.generator(0) * ctx22_sym.generator(1)
    assert x * ctx22_sym.one() == x
    with pytest.raises(HeckeError):
        x * ctx22_spec.one()


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
def test_defining_relations_symbolic(r, n):
    ctx = laurent_context(r, n)
    T = [ctx.generator(i) for i in range(n)]
    one = ctx.one()
    prod = one
    for q in ctx.qs:
        prod = prod * (T[0] - one.scale(q))
    assert prod.is_zero()
    for i in range(1, n):
        assert ((T[i] - one.scale(ctx.xi)) * (T[i] + one)).is_zero()
    if n >= 2:
        assert T[0] * T[1] * T[0] * T[1] == T[1] * T[0] * T[1] * T[0]
    for i in range(1, n - 1):
        assert T[i] * T[i + 1] * T[i] == T[i + 1] * T[i] * T[i + 1]
    for i in range(n):
        for j in range(i + 2, n):
            assert T[i] * T[j] == T[j] * T[i]


def test_associativity_and_closure_random(ctx22_sym):
    ctx = ctx22_sym
    rng = random.Random(3)
    idxs = list(ctx.basis_indices())
    for _ in range(50):
        a = ctx.from_index(rng.choice(idxs))
        b = ctx.from_index(rng.choice(idxs))
        c = ctx.from_index(rng.choice(idxs))
        ab = a * b
        for (cc, _w) in ab.terms:
            assert all(0 <= x < ctx.params.r for x in cc)
        assert (ab * c) == a * (b * c)


def test_star(ctx22_sym):
    ctx = ctx22_sym
    T0, T1 = ctx.generator(0), ctx.generator(1)
    assert T0.star() == T0 and T1.star() == T1
    assert ctx.jm(2).star() == ctx.jm(2)
    x = T0 * T1 * T0
    assert x.star().star() == x
    assert (T0 * T1).star() == T1 * T0
    rng = random.Random(5)
    idxs = list(ctx.basis_indices())
    for _ in range(20):
        a = ctx.from_index(rng.choice(idxs))
        b = ctx.from_index(rng.choice(idxs))
        assert (a * b).star() == b.star() * a.star()


@pytest.mark.parametrize("make_ctx", [
    lambda: spec_context(2, 3),
    lambda: spec_context(3, 3),
    lambda: spec_context(1, 4),
    lambda: laurent_context(2, 2),
    lambda: fraction_context(2, 2),
], ids=["2-3", "3-3", "1-4", "2-2-laurent", "2-2-fraction"])
def test_star_recursion_matches_the_word_definition(make_ctx):
    # the definition: (L^c T_w)^* = T_{w^-1} L^c, the letters of a reduced
    # word of w applied to L^c as left actions, first letter first
    ctx = make_ctx()
    for idx in ctx.basis_indices():
        c, w = idx
        want = {(c, tuple(range(1, ctx.params.n + 1))): ctx.ring.one()}
        for tok in coxeter_word(w):
            want = _terms_lmul(ctx, tok, want)
        assert _star_index(ctx, idx) == want, idx
        x = ctx.from_index(idx)
        assert x.star().star() == x


def _seminormal_rho(sd, shape, idx):
    """rho_lambda(L^c T_w) = diag(prod_m c_m(t)^{c_m}) rho_lambda(T_w)."""
    ring = sd.ctx.ring
    c, w = idx
    diag = []
    for cv in sd.shape_contents(shape):
        d = ring.one()
        for cm, content in zip(c, cv):
            for _ in range(cm):
                d = d * content
        diag.append(d)
    return _mat_mul(ring, _mat_diag(ring, diag), sd._word_matrix(shape, coxeter_word(w)))


def _seminormal_rho_terms(sd, shape, terms):
    ring = sd.ctx.ring
    out = [{} for _ in sd.std[shape]]
    for idx, coeff in terms:
        for row, rho_row in zip(out, _seminormal_rho(sd, shape, idx)):
            for col, v in rho_row.items():
                row[col] = row.get(col, ring.zero()) + coeff * v
    return [{col: v for col, v in row.items() if not ring.is_zero(v)} for row in out]


@pytest.mark.parametrize("make_ctx", [
    lambda: spec_context(2, 3, Fraction(2), [Fraction(1), Fraction(100)]),
    lambda: spec_context(3, 2),
    lambda: spec_context(1, 4),
    lambda: fraction_context(2, 2),
], ids=["2-3", "3-2", "1-4", "2-2-fraction"])
def test_right_t0_action_matches_the_seminormal_representations(make_ctx):
    """At a semisimple point the seminormal representations together are
    faithful, so they decide (L^c T_w) T_0 without the anti-involution or
    any straightening."""
    ctx = make_ctx()
    sd = SeminormalData(ctx)
    assert sum(len(sd.std[shape]) ** 2 for shape in sd.shapes) == ctx.dimension
    for shape in sd.shapes:
        rho_t0 = sd.generator_matrices(shape)[0]
        for idx in ctx.basis_indices():
            want = _mat_mul(ctx.ring, _seminormal_rho(sd, shape, idx), rho_t0)
            got = _seminormal_rho_terms(sd, shape, _rmul_gen_index(ctx, idx, 0))
            assert got == want, (shape, idx)


@pytest.mark.parametrize("make_ctx", [
    lambda: laurent_context(2, 3),
    lambda: spec_context(1, 4),
], ids=["2-3-laurent", "1-4"])
def test_jm_polynomial_matches_horner_through_products(make_ctx):
    # at r = 1, L_m is not a basis element
    ctx = make_ctx()
    ring = ctx.ring
    rng = random.Random(7)
    idxs = list(ctx.basis_indices())
    for m in range(1, ctx.params.n + 1):
        for _ in range(3):
            poly = [ring.from_int(rng.randint(-3, 3)) for _ in range(4)]
            elt = ctx.zero()
            for _ in range(3):
                elt = elt + ctx.from_index(rng.choice(idxs),
                                           ring.from_int(rng.randint(1, 5)))
            want = ctx.zero()
            for c in reversed(poly):
                want = want * ctx.jm(m) + ctx.one().scale(c)
            assert jm_polynomial(ctx, m, poly, elt) == want * elt, (m, poly)


def test_tau(ctx22_sym):
    ctx = ctx22_sym
    assert ctx.one().tau() == ctx.ring.one()
    assert ctx.generator(1).tau() == ctx.ring.zero()
    rng = random.Random(7)
    idxs = list(ctx.basis_indices())
    for _ in range(100):
        a = ctx.from_index(rng.choice(idxs))
        b = ctx.from_index(rng.choice(idxs))
        assert (a * b).tau() == (b * a).tau()


def test_tau_gram_nondegenerate_symbolic():
    ctx = fraction_context(2, 2)
    elements = [t_element(ctx, w) for w in enumerate_group(ctx.params)]
    gram = [[(a * b).tau() for b in elements] for a in elements]
    invert_matrix(ctx.ring, gram)      # raises on a singular matrix


def test_symmetric_jm_polynomials_central(ctx22_sym):
    from cyclohecke.hecke import elementary_symmetric_jm
    ctx = ctx22_sym
    for m in (1, 2):
        em = elementary_symmetric_jm(ctx, m)
        for tok in range(ctx.params.n):
            g = ctx.generator(tok)
            assert (em * g - g * em).is_zero()


def test_two_reduced_words_differ_by_lower_terms():
    # T depends on the reduced word, but only through shorter non-Coxeter terms
    ctx = fraction_context(3, 2)
    params = ctx.params
    found = None
    for w in sorted(enumerate_group(params),
                    key=lambda w: (length(w), w.colors, w.perm)):
        if w.is_plain() or length(w) < 2:
            continue
        words = reduced_words(w, cap=8)
        if len(words) >= 2:
            found = (w, words[0], words[1])
            break
    assert found is not None
    w, word1, word2 = found
    diff = word_product(ctx, word1) - word_product(ctx, word2)
    span = SubspaceBasis(ctx.ring)
    for y in enumerate_group(params):
        if 0 < length(y) < length(w) and not y.is_plain():
            span.add(t_element(ctx, y).terms)
    assert span.contains(diff.terms)


def test_t_basis_is_a_basis(ctx22_spec):
    ctx = ctx22_spec
    basis = SubspaceBasis(ctx.ring)
    for w in enumerate_group(ctx.params):
        assert basis.add(t_element(ctx, w).terms)
    assert basis.rank == ctx.dimension


def test_young_subgroup():
    perms = young_subgroup([2, 1], 3)
    assert len(perms) == 2
    perms = young_subgroup([3], 3)
    assert len(perms) == 6


def test_m_tt_examples():
    ctx = laurent_context(1, 3)
    total = ctx.zero()
    for p in itertools.permutations((1, 2, 3)):
        total = total + t_perm(ctx, p)
    assert m_tt(ctx, ((3,),)) == total


def test_m_basis_star_symmetry(ctx22_sym):
    ctx = ctx22_sym
    cache = {}
    count = 0
    for shape in enumerate_multipartitions(2, 2):
        stds = standard_tableaux(shape)
        for s in stds:
            for t in stds:
                assert m_basis(ctx, s, t, cache).star() == \
                    m_basis(ctx, t, s, cache)
                count += 1
    assert count == ctx.dimension


def test_m_basis_is_cellular_basis(ctx22_spec):
    ctx = ctx22_spec
    basis = SubspaceBasis(ctx.ring)
    cache = {}
    for shape in enumerate_multipartitions(2, 2):
        stds = standard_tableaux(shape)
        for s in stds:
            for t in stds:
                assert basis.add(m_basis(ctx, s, t, cache).terms)
    assert basis.rank == ctx.dimension


def test_element_serialization(ctx22_sym):
    ctx = ctx22_sym
    x = ctx.generator(0) * ctx.generator(1) + ctx.one().scale(ctx.xi)
    payload = x.to_json()
    assert HeckeElement.from_json(ctx, payload) == x
    assert payload == sorted(payload, key=lambda item: (item["c"], item["w"]))


@pytest.mark.parametrize("payload", [
    {"c": [0, 1], "w": [1, 2], "coeff": "1"},           # not a list
    [[0, 1]],                                           # term not an object
    [{"c": [0, 1], "w": [1, 2]}],                       # no coefficient
    [{"c": [0, 1], "w": [1, 2], "coeff": 1}],           # coefficient not text
    [{"c": [0, 3], "w": [1, 2], "coeff": "1"}],         # colour >= r
    [{"c": [5], "w": [1, 2], "coeff": "1"}],            # wrong length
    [{"c": [True, 0], "w": [1, 2], "coeff": "1"}],      # boolean colour
    [{"c": [0, 1], "w": [2, 2], "coeff": "1"}],         # not a permutation
    [{"c": [0, 1], "w": [1, "2"], "coeff": "1"}],       # text entry
])
def test_element_deserialization_rejects_malformed_terms(ctx22_spec, payload):
    with pytest.raises(HeckeError):
        HeckeElement.from_json(ctx22_spec, payload)


def test_specialized_relations_2_4():
    ctx = spec_context(2, 4)
    T = [ctx.generator(i) for i in range(4)]
    one = ctx.one()
    assert ((T[0] - one.scale(ctx.qs[0])) * (T[0] - one.scale(ctx.qs[1]))).is_zero()
    assert T[1] * T[2] * T[1] == T[2] * T[1] * T[2]
    assert T[0] * T[2] == T[2] * T[0]
    jms = ctx.jm_all()
    assert jms[3] * jms[1] == jms[1] * jms[3]


def test_cyclotomic_degree_drop_r3():
    ctx = laurent_context(3, 2)
    idx = ((2, 0), (1, 2))
    out = ctx.from_index(idx).rmul_gen(0)    # L_1^2 T_w times T_0
    assert all(c[0] < 3 for c, _w in out.terms)


def test_xi_one_context_constructible():
    # the group-algebra point is constructible; only the center-conjecture
    # checker refuses it
    ctx = spec_context(2, 2, Fraction(1), [Fraction(1), Fraction(-1)])
    T0, T1 = ctx.generator(0), ctx.generator(1)
    assert (T1 * T1) == ctx.one()
    assert T0 * T1 * T0 * T1 == T1 * T0 * T1 * T0


@pytest.mark.parametrize("r,n", [(2, 2), (1, 3)])
def test_dropped_context_is_freed_without_gc(r, n):
    ctx = spec_context(r, n)
    for w in enumerate_group(ctx.params):
        t_element(ctx, w)
    for m in range(1, n + 1):
        ctx.jm(m)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()
