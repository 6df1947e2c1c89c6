import math
import random
from fractions import Fraction

import pytest

from conftest import fraction_context, spec_context

from cyclohecke.center import (
    ClassPolynomials,
    _index_commutator,
    center,
    center_bases_yz,
    center_conjecture_report,
    class_data,
    commutator_subspace,
    context_for_weight,
    is_central,
    representative_dependence_report,
    spans_equal,
    symmetric_jm_subalgebra,
)
from cyclohecke.group import (
    GroupElement,
    GroupParams,
    conjugacy_invariant,
    enumerate_group,
    gen_element,
    length,
)
from cyclohecke.hecke import AlgebraContext, HeckeElement, jm_polynomial, t_element
from cyclohecke.linalg import SubspaceBasis, invert_matrix, nullspace, solve, span
from cyclohecke.rings import RingSpec
from cyclohecke.seminormal import SeminormalData


def test_class_data():
    infos = class_data(GroupParams(2, 2))
    assert len(infos) == 5
    labels = [i.label for i in infos]
    assert labels == sorted(labels)
    for info in infos:
        assert conjugacy_invariant(info.rep) == info.label
        assert length(info.rep) == info.min_length


@pytest.mark.parametrize("r,n,xi,qs,classes", [
    (2, 2, Fraction(2), [Fraction(1), Fraction(100)], 5),
    (1, 3, Fraction(-1), [Fraction(1)], 3),
    (2, 2, Fraction(-1), [Fraction(1), Fraction(-1)], 5),
    (2, 3, Fraction(-1), [Fraction(1), Fraction(-1)], 10),
])
def test_center_and_cocenter_dimensions(r, n, xi, qs, classes):
    ctx = spec_context(r, n, xi, qs)
    comm = commutator_subspace(ctx)
    elements, zbasis = center(ctx)
    assert comm.rank == ctx.dimension - classes
    assert zbasis.rank == classes
    for z in elements:
        assert is_central(ctx, z)
    # identity is central; [x, x] = 0 membership
    assert zbasis.contains(ctx.one().terms)
    x = ctx.generator(0) * ctx.generator(1)
    assert comm.contains((x * x - x * x).terms)
    gen = ctx.generator(1)
    assert comm.contains((x * gen - gen * x).terms)


def _half_third_context(r, n):
    """A rational point where xi and Q_1 are not integers, so the
    straightening tables mix ints and Fractions."""
    return spec_context(r, n, Fraction(1, 2), [Fraction(1, 3), Fraction(2)][:r])


@pytest.mark.parametrize("make", [spec_context, fraction_context, _half_third_context],
                         ids=["spec_context", "fraction_context", "half_third_context"])
def test_index_commutator_matches_hecke_commutators(make):
    ctx = make(2, 2)
    for token in range(ctx.params.n):
        gen = ctx.generator(token)
        for idx in ctx.basis_indices():
            elt = ctx.from_index(idx)
            want = (elt * gen - gen * elt).terms
            assert _index_commutator(ctx, idx, token) == want


@pytest.mark.parametrize("kind", ["rational", "rational-specialization"])
@pytest.mark.parametrize("xi,qs", [
    (Fraction(2), (Fraction(1), Fraction(100))),
    (Fraction(1, 2), (Fraction(1, 3), Fraction(2))),
], ids=["integral", "half-third"])
def test_every_element_coefficient_is_a_ring_value(kind, xi, qs):
    # the straightening tables hold ints over Q; no int may reach an element
    ring = RingSpec.rational() if kind == "rational" else RingSpec.specialized(xi, qs)
    ctx = AlgebraContext(GroupParams(2, 3), ring, xi, qs)

    def check(elt):
        assert all(ring.contains(v) for v in elt.terms.values()), elt

    gens = [ctx.generator(t) for t in range(ctx.params.n)]
    for w in enumerate_group(ctx.params):
        check(t_element(ctx, w))
        check(t_element(ctx, w).star())
    for a in gens:
        check(a.star())
        for b in gens:
            check(a * b)
            check(a.rmul_gen(1) * b)
    for m in range(1, ctx.params.n + 1):
        check(ctx.jm(m))
        check(jm_polynomial(ctx, m, [ring.one(), ring.from_int(-3), xi], gens[1]))
    for z in center(ctx)[0]:
        check(z)
    ys, zs = center_bases_yz(ctx, ClassPolynomials(ctx))
    for elt in list(ys.values()) + list(zs.values()):
        check(elt)


def _generator_order_reference(ctx):
    """[H, H] and the center nullspace with the commutators in token order
    0..n-1."""
    pairs = [(token, idx) for token in range(ctx.params.n)
             for idx in ctx.basis_indices()]
    comm = span(ctx.ring, [_index_commutator(ctx, idx, token) for token, idx in pairs])
    rows = {}
    for token, idx in pairs:
        for idx2, coeff in _index_commutator(ctx, idx, token).items():
            rows.setdefault((token, idx2), {})[idx] = coeff
    return comm, nullspace(ctx.ring, list(rows.values()), list(ctx.basis_indices()))


@pytest.mark.parametrize("make", [
    lambda: spec_context(2, 3),
    lambda: spec_context(2, 3, Fraction(-1), [Fraction(1), Fraction(-1)]),
    lambda: spec_context(3, 3),
    lambda: spec_context(3, 3, Fraction(-1), [Fraction(1), Fraction(-1), Fraction(1)]),
    lambda: context_for_weight(2, 3, 3, (0, 1)),
], ids=["2-3-xi2", "2-3-xi-1", "3-3-xi2", "3-3-xi-1", "2-3-cyclo3"])
def test_token_order_does_not_change_the_echelon(make):
    ctx = make()
    comm, sols = _generator_order_reference(ctx)
    assert commutator_subspace(ctx).vectors() == comm.vectors()
    assert [z.terms for z in center(ctx)[0]] == sols


def test_token_order_over_the_fraction_field_keeps_the_span():
    ctx = fraction_context(3, 2)
    comm, sols = _generator_order_reference(ctx)
    new = commutator_subspace(ctx)
    assert new.rank == comm.rank == ctx.dimension - 9
    assert spans_equal(new, comm)
    elements, zbasis = center(ctx)
    assert zbasis.rank == len(sols) == 9
    assert spans_equal(zbasis, span(ctx.ring, sols))


@pytest.mark.parametrize("make", [
    lambda: spec_context(2, 3),
    lambda: spec_context(2, 4, Fraction(-1), [Fraction(1), Fraction(-1)]),
    lambda: fraction_context(3, 2),
    lambda: context_for_weight(2, 3, 3, (0, 1)),
], ids=["2-3-xi2", "2-4-xi-1", "3-2-fraction", "2-3-cyclo3"])
def test_center_basis_is_an_echelon_basis_of_the_center(make):
    ctx = make()
    ring = ctx.ring
    elements, zbasis = center(ctx)
    built = span(ring, [z.terms for z in elements])
    stored = zbasis._rows
    assert zbasis.rank == built.rank == len(elements)
    for pivot, row in stored.items():
        assert all(other == pivot or other not in row for other in stored)
        if ring.kind == "rational-specialization":
            assert all(type(v) is int for v in row.values())
            assert row[pivot] > 0
            assert math.gcd(*row.values()) == 1
        else:
            assert row[pivot] == ring.one()
    for pivot, row in zbasis.rows.items():
        assert row[pivot] == ring.one()
    assert spans_equal(zbasis, built)
    for z in elements:
        assert zbasis.contains(z.terms) and built.contains(z.terms)
    for elt in [ctx.generator(t) + elements[0] for t in range(ctx.params.n)]:
        assert not zbasis.contains(elt.terms) and not built.contains(elt.terms)
        # the remainder differs from elt by a nonzero central element
        part = elt - HeckeElement(ctx, zbasis.reduce(elt.terms))
        assert not part.is_zero() and built.contains(part.terms)
    assert zbasis.contains((elements[0].scale(ring.from_int(3)) - elements[-1]).terms)


def test_center_commutator_tau_duality():
    # over a semisimple field: z central iff tau(z h) = 0 for all h in [H,H]
    ctx = spec_context(2, 2)
    comm = commutator_subspace(ctx)
    elements, _ = center(ctx)
    from cyclohecke.hecke import HeckeElement
    for z in elements:
        for vec in comm.vectors():
            h = HeckeElement(ctx, vec)
            assert ctx.ring.is_zero((z * h).tau())


def test_symmetric_jm_span():
    ctx = spec_context(1, 3, Fraction(-1), [Fraction(1)])
    sym = symmetric_jm_subalgebra(ctx)
    from cyclohecke.hecke import elementary_symmetric_jm
    assert sym.contains(ctx.one().terms)
    assert sym.contains(elementary_symmetric_jm(ctx, 1).terms)
    _, zbasis = center(ctx)
    assert spans_equal(sym, zbasis)


@pytest.mark.parametrize("r,n,e,kappa,dim", [
    (1, 3, 2, (0,), 3),
    (2, 2, 2, (0, 1), 5),
    (1, 3, 3, (0,), 3),
])
def test_center_conjecture_instances(r, n, e, kappa, dim):
    rep = center_conjecture_report(r, n, e, kappa)
    assert rep["dim_center"] == dim
    assert rep["center_equals_symmetric_jm"]
    assert rep["center_rank_matches_classes"]


def test_center_conjecture_rejects_xi_one():
    with pytest.raises(ValueError):
        center_conjecture_report(1, 2, 1, (0,))


# beta_hat is the identity at (2,2) and moves classes at (3,2), so only the
# second size can tell g_{w,C} from a wrongly relabelled f row
@pytest.fixture(scope="module", params=[(2, 2), (3, 2)], ids=["2-2", "3-2"])
def spec_polys(request):
    ctx = spec_context(*request.param)
    return ClassPolynomials(ctx)


def test_f_delta_on_representatives(spec_polys):
    ctx = spec_polys.ctx
    for info in spec_polys.classes:
        coeffs = spec_polys.f_polys(info.rep)
        for info2 in spec_polys.classes:
            want = ctx.ring.one() if info2.label == info.label \
                else ctx.ring.zero()
            assert coeffs[info2.label] == want


def test_g_delta_on_cp_representatives(spec_polys):
    ctx = spec_polys.ctx
    for info in spec_polys.classes:
        wc = spec_polys.cp_representative(info.label)
        assert conjugacy_invariant(wc) == info.label
        coeffs = spec_polys.g_polys(wc)
        for info2 in spec_polys.classes:
            want = ctx.ring.one() if info2.label == info.label \
                else ctx.ring.zero()
            assert coeffs[info2.label] == want


def test_residual_membership_all_elements(spec_polys):
    for w in enumerate_group(spec_polys.ctx.params):
        spec_polys.f_polys(w, check_residual=True)
        spec_polys.g_polys(w, check_residual=True)


@pytest.mark.parametrize("make,moved", [
    (lambda: spec_context(3, 2), 6),
    (lambda: fraction_context(3, 1), 2),
], ids=["3-2-spec", "3-1-fraction"])
def test_g_polys_solve_the_permuted_character_matrix(make, moved):
    # reference, independent of the production route: g_{w,C} from its own
    # system, the character matrix with column C replaced by
    # chi(T_{w_{beta_hat(C)}}), right-hand side chi(T_{w^{-1}})
    ctx = make()
    snd = SeminormalData(ctx)
    polys = ClassPolynomials(ctx)
    beta_hat = {conjugacy_invariant(info.rep.inverse()): info.label
                for info in polys.classes}
    assert sum(c != beta_hat[c] for c in beta_hat) == moved
    reps = {info.label: t_element(ctx, info.rep) for info in polys.classes}
    hat = [{c: snd.character(shape, reps[beta_hat[c]]) for c in reps}
           for shape in snd.shapes]
    for w in enumerate_group(ctx.params):
        target = t_element(ctx, w.inverse())
        rhs = [snd.character(shape, target) for shape in snd.shapes]
        want = solve(ctx.ring, hat, rhs)
        got = polys.g_polys(w)
        assert list(got) == [info.label for info in polys.classes]
        assert got == want
        assert [ctx.ring.format(got[c]) for c in got] == \
            [ctx.ring.format(want[c]) for c in got]


def test_class_polynomials_refuse_a_remainder_outside_the_representatives():
    # against the zero subspace T_w is its own remainder, so a
    # non-representative w has a column the system does not have
    ctx = spec_context(2, 2)
    polys = ClassPolynomials(ctx)
    polys._commutators = SubspaceBasis(ctx.ring)
    reps = {info.rep for info in polys.classes}
    for info in polys.classes:
        assert polys.f_polys(info.rep, check_residual=False)[info.label] == 1
    others = [w for w in enumerate_group(ctx.params) if w not in reps]
    assert others
    for w in others:
        with pytest.raises(ArithmeticError):
            polys.f_polys(w, check_residual=False)


@pytest.mark.parametrize("r,n,xi,qs", [
    (2, 2, 1, (1, 1)),
    (1, 3, -1, (1,)),
    (3, 2, -1, (1, -1, 1)),
], ids=["2-2-xi1", "1-3-xi-1", "3-2-xi-1"])
def test_non_semisimple_rows_specialize_the_symbolic_rows(r, n, xi, qs):
    values = (Fraction(xi),) + tuple(Fraction(q) for q in qs)
    ctx = spec_context(r, n, values[0], list(values[1:]))
    with pytest.raises(ArithmeticError):
        SeminormalData(ctx)
    polys = ClassPolynomials(ctx)
    polys_sym = ClassPolynomials(fraction_context(r, n))
    for w in enumerate_group(ctx.params):
        direct = polys.f_polys(w)
        for label, val in polys_sym.f_polys(w, check_residual=False).items():
            assert val.as_laurent().specialize(values, Fraction(1)) == direct[label]


@pytest.mark.parametrize("make", [
    lambda: spec_context(1, 3),
    lambda: spec_context(2, 3),
    lambda: spec_context(3, 2),
], ids=["1-3", "2-3", "3-2"])
def test_is_central_agrees_with_products(make):
    # at r = 1, T_0 is the scalar Q_1
    ctx = make()
    gens = [ctx.generator(t) for t in range(ctx.params.n)]

    def by_products(elt):
        return all(elt * g == g * elt for g in gens)

    elements, _ = center(ctx)
    rng = random.Random(7)
    indices = list(ctx.basis_indices())
    for _ in range(20):
        a, b = rng.sample(indices, 2)
        elements.append(ctx.from_index(a, ctx.ring.from_int(rng.randint(1, 5)))
                        + ctx.from_index(b, ctx.ring.from_int(rng.randint(-5, -1))))
    verdicts = [is_central(ctx, elt) for elt in elements]
    assert verdicts == [by_products(elt) for elt in elements]
    assert any(verdicts) and not all(verdicts)


def test_geck_pfeiffer_zero_one_on_minimal_coxeter():
    # r=1: on minimal (Coxeter-parabolic) elements f is a 0/1 indicator
    ctx = spec_context(1, 3)
    polys = ClassPolynomials(ctx)
    for info in polys.classes:
        coeffs = polys.f_polys(info.rep)
        values = sorted(str(v) for v in coeffs.values())
        assert values == ["0", "0", "1"]


def test_symbolic_class_polynomials_integral():
    ctx = fraction_context(2, 2)
    polys = ClassPolynomials(ctx)
    for w in enumerate_group(ctx.params):
        for val in polys.f_polys(w, check_residual=False).values():
            val.as_laurent()
        for val in polys.g_polys(w, check_residual=False).values():
            val.as_laurent()


def _reference_duals(ctx):
    """{w: T_w^vee}, the tau-dual basis of the fixed-word basis {T_w}, from
    the inverse of the full-product Gram matrix tau(T_u T_w)."""
    order = list(enumerate_group(ctx.params))
    elts = [t_element(ctx, w) for w in order]
    inv = invert_matrix(ctx.ring, [[(a * b).tau() for b in elts] for a in elts])
    duals = {}
    for w, col in zip(order, zip(*inv)):
        dual = ctx.zero()
        for t, c in zip(elts, col):
            dual = dual + t.scale(c)
        duals[w] = dual
    return duals


@pytest.mark.parametrize("make,moved", [
    (lambda: spec_context(2, 2), 0),
    (lambda: spec_context(3, 2), 6),
    (lambda: spec_context(2, 2, Fraction(-1), [Fraction(1), Fraction(-1)]), 0),
    (lambda: fraction_context(2, 2), 0),
    (lambda: spec_context(2, 3), 0),
    (lambda: spec_context(2, 3, Fraction(-1), [Fraction(1), Fraction(-1)]), 0),
], ids=["2-2", "3-2", "2-2-xi-1", "2-2-fraction", "2-3-xi2", "2-3-xi-1"])
def test_z_is_the_relabelled_y(make, moved):
    # reference: y_C = sum_w f_{w,C} T_w^vee and z_C = sum_w g_{w,C}
    # (T_{w^{-1}})^vee, each a sum of its own over the group
    ctx = make()
    polys = ClassPolynomials(ctx)
    duals = _reference_duals(ctx)
    ys, zs = center_bases_yz(ctx, polys)
    assert sum(zs[c] is not ys[c] for c in ys) == moved
    assert all(is_central(ctx, y) for y in ys.values())
    assert span(ctx.ring, [y.terms for y in ys.values()]).rank == len(ys)
    fs = {w: polys.f_polys(w, check_residual=False) for w in duals}
    for info in polys.classes:
        want_y, want_z = ctx.zero(), ctx.zero()
        for w, dual in duals.items():
            want_y = want_y + dual.scale(fs[w][info.label])
            g = polys.g_from_f(fs[w.inverse()])[info.label]
            want_z = want_z + duals[w.inverse()].scale(g)
        assert ys[info.label] == want_y
        assert zs[info.label] == want_z


@pytest.mark.parametrize("make,classes", [
    (lambda: spec_context(2, 3), 5),
    (lambda: spec_context(2, 3, Fraction(-1), [Fraction(1), Fraction(-1)]), 5),
    (lambda: spec_context(1, 4, Fraction(-1), [Fraction(1)]), 3),
    (lambda: spec_context(3, 2), 3),
], ids=["2-3-xi2", "2-3-xi-1", "1-4-xi-1", "3-2-xi2"])
def test_minimal_representatives_are_congruent_modulo_commutators(make, classes):
    ctx = make()
    report = representative_dependence_report(ctx, commutator_subspace(ctx))
    assert report == {"classes_with_alternative_minimal_rep": classes,
                      "differences": [], "agrees_everywhere": True}


def test_representative_dependence_reports_elements_outside_commutators():
    # against the zero subspace every other minimal element is a difference
    ctx = spec_context(2, 3)
    report = representative_dependence_report(ctx, SubspaceBasis(ctx.ring))
    assert report["classes_with_alternative_minimal_rep"] == 5
    assert len(report["differences"]) == 9
    assert not report["agrees_everywhere"]
    canon = {info.label: info.rep for info in class_data(ctx.params)}
    for diff in report["differences"]:
        assert set(diff) == {"w", "class"}
        w = GroupElement.from_json(ctx.params, diff["w"])
        label = tuple(tuple(c) for c in diff["class"])
        assert conjugacy_invariant(w) == label
        assert w != canon[label] and length(w) == length(canon[label])


def test_equal_length_moves_need_not_be_congruences():
    # the check is on class minima: an equal-length conjugation by s_1
    # between non-minimal elements can leave [H, H]
    ctx = spec_context(3, 3, Fraction(2),
                       [Fraction(1), Fraction(10), Fraction(100)])
    w = GroupElement(ctx.params, (1, 1, 2), (2, 3, 1))
    w2 = GroupElement(ctx.params, (1, 1, 2), (3, 1, 2))
    s1 = gen_element(ctx.params, 1)
    assert s1 * w * s1 == w2 and length(w) == length(w2)
    minimal = {info.label: info.min_length for info in class_data(ctx.params)}
    assert length(w) > minimal[conjugacy_invariant(w)]
    diff = t_element(ctx, w) - t_element(ctx, w2)
    assert not commutator_subspace(ctx).contains(diff.terms)


def test_symbolic_specialization_consistency():
    ctx_sym = fraction_context(2, 2)
    polys_sym = ClassPolynomials(ctx_sym)
    words = list(enumerate_group(GroupParams(2, 2)))
    sym_vals = {w: polys_sym.f_polys(w, check_residual=False) for w in words}
    xi, qs = Fraction(3), [Fraction(2), Fraction(49)]
    ctx_sp = spec_context(2, 2, xi, qs)
    polys_sp = ClassPolynomials(ctx_sp)
    values = (xi,) + tuple(qs)
    for w in words:
        direct = polys_sp.f_polys(w, check_residual=False)
        for label, val in sym_vals[w].items():
            assert val.as_laurent().specialize(values, Fraction(1)) \
                == direct[label]


def test_context_for_weight_cyclotomic():
    ctx = context_for_weight(1, 2, 3, (0,))
    total = ctx.ring.zero()
    power = ctx.ring.one()
    for _ in range(3):
        total = total + power
        power = power * ctx.xi
    assert ctx.ring.is_zero(total)


def test_cocenter_basis_ranks():
    # [H,H] + span{T_{w_C}} fills the algebra, and each T_{w_C} adds rank;
    # the starred family is a basis of the cocenter as well
    for xi, qs in [(Fraction(2), [Fraction(1), Fraction(100)]),
                   (Fraction(-1), [Fraction(1), Fraction(-1)])]:
        ctx = spec_context(2, 2, xi, qs)
        infos = class_data(ctx.params)
        for starred in (False, True):
            basis = commutator_subspace(ctx)
            start = basis.rank
            for info in infos:
                elt = t_element(ctx, info.rep)
                if starred:
                    elt = elt.star()
                assert basis.add(elt.terms)
            assert basis.rank == start + len(infos) == ctx.dimension
