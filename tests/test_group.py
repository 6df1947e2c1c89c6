import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohecke.group import (
    BudgetExceeded,
    ColoredSemiBicomposition,
    GroupElement,
    GroupError,
    GroupParams,
    bm_normal_form,
    conjugacy_invariant,
    dc_normal_form,
    divisor_chain,
    enumerate_classes,
    enumerate_group,
    eval_word,
    format_word,
    gen_element,
    is_alpha_form,
    length,
    parse_word,
    phi_bijection_full,
    phi_inverse,
    sprime,
    t_ka,
    theta_factorization,
    w_alpha,
    w_lambda_eps,
    _bm_length,
    _bm_parts,
    _length,
    _product,
)
from cyclohecke.tableaux import compositions, enumerate_multipartitions

SIZES = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 3), (3, 4), (1, 5)]


def test_eval_word_examples():
    P = GroupParams(3, 2)
    assert eval_word(P, ()).is_identity()
    assert eval_word(P, (0,) * 3).is_identity()          # t^r = 1
    assert eval_word(P, parse_word(P, "t s1 t s1")) == \
        eval_word(P, parse_word(P, "s1 t s1 t"))
    with pytest.raises(GroupError):
        parse_word(P, "s2")
    with pytest.raises(GroupError):
        parse_word(P, "u1")
    assert parse_word(P, "e") == () and parse_word(P, " e ") == ()
    with pytest.raises(GroupError):
        parse_word(P, "e t")             # e names the empty word only alone


@pytest.mark.parametrize("r,n", [(1, 1), (2, 3), (3, 4)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_format_word_reads_back(r, n, data):
    P = GroupParams(r, n)
    assert parse_word(P, format_word(())) == ()
    word = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)))
    assert parse_word(P, format_word(word)) == word


def test_group_axioms():
    P = GroupParams(3, 3)
    t = GroupElement.gen_t(P)
    s1 = GroupElement.gen_s(P, 1)
    x = t * s1 * t
    assert x * GroupElement.identity(P) == x
    assert (s1 * s1).is_identity()
    assert t.inverse() == t * t                           # t^{r-1}
    assert (x.inverse() * x).is_identity()
    with pytest.raises(GroupError):
        x * GroupElement.identity(GroupParams(2, 3))


def test_defining_relations_all():
    P = GroupParams(4, 4)
    t = GroupElement.gen_t(P)
    s = [None] + [GroupElement.gen_s(P, i) for i in range(1, 4)]
    cur = GroupElement.identity(P)
    for _ in range(P.r):
        cur = cur * t
    assert cur.is_identity()
    assert t * s[1] * t * s[1] == s[1] * t * s[1] * t
    assert t * s[2] == s[2] * t and t * s[3] == s[3] * t
    assert s[1] * s[2] * s[1] == s[2] * s[1] * s[2]
    assert s[2] * s[3] * s[2] == s[3] * s[2] * s[3]
    assert s[1] * s[3] == s[3] * s[1]


def test_bm_examples():
    P = GroupParams(3, 3)
    bm = bm_normal_form(GroupElement.identity(P))
    assert bm.a == (0, 0, 0) and bm.v == (1, 2, 3) and bm.word == ()
    for a in range(1, 3):
        bm = bm_normal_form(t_ka(P, 0, a))
        assert bm.a == (a, 0, 0) and bm.v == (1, 2, 3)
    # s1 t s1 = t_{1,1} s1
    w = eval_word(P, (1, 0, 1))
    bm = bm_normal_form(w)
    assert bm.a == (0, 1, 0) and bm.v == (2, 1, 3)
    assert eval_word(P, bm.word) == w


@pytest.mark.parametrize("r,n", SIZES)
def test_bm_bijection_and_length_oracle(r, n):
    """The closed-form length against the BM parts and the BFS distance."""
    P = GroupParams(r, n)
    dist = enumerate_group(P)
    assert len(dist) == P.order
    seen = set()
    for w, d in dist.items():
        bm = bm_normal_form(w)
        assert eval_word(P, bm.word) == w
        assert length(w) == _bm_length(*_bm_parts(w)) == d
        key = (bm.a, bm.v)
        assert key not in seen
        seen.add(key)
    assert len(seen) == P.order


@pytest.mark.parametrize("r,n", [(2, 6), (4, 6), (3, 7)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bm_word_and_length_beyond_bfs(r, n, data):
    P = GroupParams(r, n)
    colors = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(1, n + 1)))
    w = GroupElement(P, colors, perm)
    bm = bm_normal_form(w)
    assert eval_word(P, bm.word) == w
    assert length(w) == len(bm.word) == bm.length()
    for token in range(n):
        assert length(w * gen_element(P, token)) <= length(w) + 1


def _draw_element(data, params):
    colors = data.draw(st.lists(st.integers(0, params.r - 1),
                                min_size=params.n, max_size=params.n))
    perm = data.draw(st.permutations(range(1, params.n + 1)))
    return GroupElement(params, colors, perm)


def _validated_product(a, b):
    """a * b by the product law with unreduced colors, built through the
    validating constructor."""
    n = a.params.n
    return GroupElement(a.params,
                        [b.colors[i] + a.colors[b.perm[i] - 1] for i in range(n)],
                        [a.perm[b.perm[i] - 1] for i in range(n)])


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 5), (4, 6)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_and_inverses_match_validated_elements(r, n, data):
    P = GroupParams(r, n)
    a, b = _draw_element(data, P), _draw_element(data, P)
    product = _validated_product(a, b)
    inv = sorted(range(1, n + 1), key=lambda i: a.perm[i - 1])
    inverse = GroupElement(P, [-a.colors[inv[i] - 1] for i in range(n)], inv)
    for built, checked in ((a * b, product), (a.inverse(), inverse)):
        assert built == checked and hash(built) == hash(checked)
        assert built.colors == checked.colors and built.perm == checked.perm
        assert type(built.colors) is tuple and type(built.perm) is tuple
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()


@pytest.mark.parametrize("r,n", [(3, 3), (2, 4), (4, 3), (2, 5)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tuple_product_and_length_match_validated_elements(r, n, data):
    """The replay's tuple-level product law and length, against validated
    elements and the BM parts."""
    P = GroupParams(r, n)
    a, b = _draw_element(data, P), _draw_element(data, P)
    product = _validated_product(a, b)
    built = _product(r, (a.colors, a.perm), (b.colors, b.perm))
    assert built == (product.colors, product.perm)
    assert type(built[0]) is tuple and type(built[1]) is tuple
    for w in (a, b, product):
        assert _length(w.colors, w.perm) == _bm_length(*_bm_parts(w))


def _validated_generator(params, token):
    n = params.n
    if token == 0:
        return GroupElement(params, [1] + [0] * (n - 1), range(1, n + 1))
    perm = list(range(1, n + 1))
    perm[token - 1], perm[token] = perm[token], perm[token - 1]
    return GroupElement(params, [0] * n, perm)


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 5), (4, 6)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generator_actions_match_validated_products(r, n, data):
    P = GroupParams(r, n)
    w = _draw_element(data, P)
    one = GroupElement(P, [0] * n, range(1, n + 1))
    for token in range(n):
        g = _validated_generator(P, token)
        order = r if token == 0 else 2
        for power in (1, -1, r - 1):
            g_power = one
            for _ in range(power % order):
                g_power = _validated_product(g_power, g)
            for built, checked in ((w.rmul_gen(token, power), _validated_product(w, g_power)),
                                   (w.lmul_gen(token, power), _validated_product(g_power, w))):
                assert built == checked and hash(built) == hash(checked)
                assert type(built.colors) is tuple and type(built.perm) is tuple
    word = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)))
    folded = one
    for token in word:
        folded = _validated_product(folded, _validated_generator(P, token))
    assert eval_word(P, word) == folded and hash(eval_word(P, word)) == hash(folded)


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 5), (4, 6)])
def test_constant_elements_match_validated_elements(r, n):
    P = GroupParams(r, n)
    pairs = [(GroupElement.identity(P), GroupElement(P, [0] * n, range(1, n + 1))),
             (GroupElement.gen_t(P), _validated_generator(P, 0))]
    pairs += [(GroupElement.gen_s(P, i), _validated_generator(P, i)) for i in range(1, n)]
    for built, checked in pairs:
        assert built == checked and hash(built) == hash(checked)
        assert built.colors == checked.colors and built.perm == checked.perm


def test_out_of_range_tokens_raise():
    P = GroupParams(2, 3)
    w = eval_word(P, (0, 1, 2))
    for token in (3, 5, -1):
        with pytest.raises(GroupError):
            eval_word(P, (token,))
        with pytest.raises(GroupError):
            w.rmul_gen(token)
        with pytest.raises(GroupError):
            w.lmul_gen(token)
    for i in (0, 3):
        with pytest.raises(GroupError):
            GroupElement.gen_s(P, i)


def test_length_special_elements():
    P = GroupParams(4, 4)
    assert length(GroupElement.identity(P)) == 0
    for a in range(1, 4):
        assert length(t_ka(P, 0, a)) == a
    for k in range(4):
        for l in range(1, 4):
            assert length(sprime(P, k, l)) == 2 * k + l


def test_length_one_step_bounds():
    P = GroupParams(2, 3)
    rng = random.Random(0)
    elements = list(enumerate_group(P))
    gens = [GroupElement.gen_t(P)] + \
        [GroupElement.gen_s(P, i) for i in (1, 2)]
    for _ in range(200):
        w = rng.choice(elements)
        g = rng.choice(gens)
        assert length(w * g) <= length(w) + 1
        assert length(g * w) <= length(w) + 1


def test_dc_examples():
    P = GroupParams(3, 3)
    w = eval_word(P, (1, 0))                    # element of W_2
    dc = dc_normal_form(w)
    assert dc.a == w and dc.d.is_identity() and dc.b.is_identity()
    s2 = GroupElement.gen_s(P, 2)
    dc = dc_normal_form(s2)
    assert dc.a.is_identity() and dc.d == s2 and dc.b.is_identity()
    for l in (1, 2):
        sp = sprime(P, 2, l)
        dc = dc_normal_form(sp)
        assert dc.a.is_identity() and dc.d == sp and dc.b.is_identity()


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2), (2, 3)])
def test_dc_additive_lengths(r, n):
    P = GroupParams(r, n)
    for w in enumerate_group(P):
        dc = dc_normal_form(w)
        assert dc.a * dc.d * dc.b == w
        assert length(w) == length(dc.a) + len(dc.d_word) + len(dc.b_word)
        assert eval_word(P, dc.d_word) == dc.d
        assert eval_word(P, dc.b_word) == dc.b


def test_dc_level_one():
    P = GroupParams(3, 1)
    w = t_ka(P, 0, 2)
    dc = dc_normal_form(w)
    assert dc.d == w and dc.d_word == (0, 0)


def test_dc_times_divisor_additive():
    # l(w d_n) = l(w) + l(d_n) for w in W_{n-1}, d_n in the divisor set
    P = GroupParams(2, 3)
    divisors = [GroupElement.identity(P), GroupElement.gen_s(P, 2),
                sprime(P, 2, 1)]
    sub = [w for w in enumerate_group(P) if w.in_sublevel(2)]
    for w in sub:
        for d in divisors:
            assert length(w * d) == length(w) + length(d)


def test_special_elements():
    P = GroupParams(2, 3)
    w, word = w_lambda_eps(P, (1, 1, 1), (0, 0, 0))
    assert w.is_identity() and word == ()
    w, word = w_lambda_eps(P, (3,), (0,))
    assert word == (1, 2)
    w, word = w_lambda_eps(P, (3,), (1,))
    assert word == (0, 1, 2)                      # t s1 s2
    alpha = ColoredSemiBicomposition((3,), (1,), ())
    assert w_alpha(P, alpha)[0] == w
    with pytest.raises(GroupError):
        w_lambda_eps(P, (2, 1), (1,))
    with pytest.raises(GroupError):
        w_lambda_eps(P, (3,), (2,))


def test_conjugacy_invariant_examples():
    for r, n in [(2, 3), (3, 2)]:
        P = GroupParams(r, n)
        assert conjugacy_invariant(GroupElement.identity(P)) == \
            ((1,) * n,) + ((),) * (r - 1)
        inv = conjugacy_invariant(GroupElement.gen_t(P))
        assert inv[0] == (1,) * (n - 1) and inv[1] == (1,)
    # r = 1: ordinary cycle type
    P = GroupParams(1, 4)
    w = eval_word(P, (1, 2))
    assert conjugacy_invariant(w) == ((3, 1),)


@pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2)])
def test_conjugacy_invariant_separates(r, n):
    P = GroupParams(r, n)
    classes = enumerate_classes(P)
    assert len(classes) == len(enumerate_multipartitions(r, n))
    invs = set()
    for cls in classes:
        inv = conjugacy_invariant(cls[0])
        assert all(conjugacy_invariant(w) == inv for w in cls)
        invs.add(inv)
    assert len(invs) == len(classes)


def test_phi_bijection():
    P = GroupParams(3, 2)
    beta = ColoredSemiBicomposition((), (), (2,))
    assert phi_bijection_full(P, beta) == ((2,), (), ())
    beta = ColoredSemiBicomposition((1, 1), (2, 1), ())
    assert phi_bijection_full(P, beta) == ((), (1,), (1,))
    # exhaustive round trip at (2, 3)
    P = GroupParams(2, 3)
    labels = enumerate_multipartitions(2, 3)
    assert len(labels) == 10
    for label in labels:
        beta = phi_inverse(P, label)
        assert phi_bijection_full(P, beta) == label


def test_theta_factorization():
    P = GroupParams(2, 3)
    ds, lam, eps = theta_factorization(GroupElement.identity(P))
    assert lam == (1, 1, 1) and eps == (0, 0, 0)
    for a in (0, 1):
        w, _ = w_lambda_eps(P, (3,), (a,))
        ds, lam, eps = theta_factorization(w)
        assert lam == (3,) and eps == (a,)
    P2 = GroupParams(2, 2)
    ds, lam, eps = theta_factorization(sprime(P2, 1, 1))
    assert lam == (1, 1) and eps == (0, 1)
    assert ds[0] == ("t", 0) and ds[1] == ("sprime", 1)
    # round trip over every (lam, eps)
    import itertools
    for lam in compositions(3):
        for eps in itertools.product(range(2), repeat=len(lam)):
            w, _ = w_lambda_eps(P, lam, eps)
            _, lam2, eps2 = theta_factorization(w)
            assert (lam2, eps2) == (lam, eps)
    # non block product raises through divisor_chain
    s1 = GroupElement.gen_s(P, 1)
    s2 = GroupElement.gen_s(P, 2)
    from cyclohecke.group import NotBlockProduct
    with pytest.raises(NotBlockProduct):
        divisor_chain(s2 * s1)


def test_is_alpha_form():
    P = GroupParams(2, 3)
    w, _ = w_lambda_eps(P, (1, 2), (1, 0))
    alpha = is_alpha_form(w)
    assert alpha is not None and alpha.lam == (1,) and alpha.mu == (2,)
    # colored block after uncolored one is not an alpha form
    w, _ = w_lambda_eps(P, (2, 1), (0, 1))
    assert is_alpha_form(w) is None


def test_enumeration_counts_and_budget():
    assert len(enumerate_group(GroupParams(2, 2))) == 8
    assert len(enumerate_classes(GroupParams(2, 2))) == 5
    assert len(enumerate_classes(GroupParams(1, 3))) == 3
    with pytest.raises(BudgetExceeded):
        enumerate_group(GroupParams(2, 4), budget=100)


def test_element_serialization():
    P = GroupParams(3, 2)
    w = eval_word(P, (0, 1, 0))
    payload = w.to_json()
    assert payload == {"colors": list(w.colors), "perm": list(w.perm)}
    assert GroupElement.from_json(P, payload) == w
