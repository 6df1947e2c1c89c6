from fractions import Fraction

import pytest

from conftest import fraction_context, spec_context

from cyclohecke.linalg import SubspaceBasis
from cyclohecke.seminormal import (
    NotSemisimpleError,
    SeminormalData,
    check_semisimple,
    relation_witness,
)
from cyclohecke.tableaux import pair_dominance_lt


def test_semisimplicity_criterion():
    ok, witness = check_semisimple(spec_context(1, 2, Fraction(-1), [Fraction(1)]))
    assert not ok and witness == "1 + xi + .. + xi^1 = 0"
    ok, witness = check_semisimple(spec_context(2, 2))
    assert ok and witness is None
    ok, witness = check_semisimple(
        spec_context(2, 2, Fraction(2), [Fraction(1), Fraction(2)]))
    assert not ok and "Q" in witness
    # generic function-field parameters are always semisimple
    ok, witness = check_semisimple(fraction_context(2, 2))
    assert ok


def test_not_semisimple_raises():
    with pytest.raises(NotSemisimpleError):
        SeminormalData(spec_context(1, 2, Fraction(-1), [Fraction(1)]))


@pytest.fixture(scope="module")
def snd22():
    return SeminormalData(spec_context(2, 2))


@pytest.fixture(scope="module")
def snd13():
    return SeminormalData(spec_context(1, 3))


def test_resolution_of_identity(snd22, snd13):
    for snd in (snd22, snd13):
        assert snd.resolution_of_identity() == snd.ctx.one()


def test_ft_idempotents_and_eigenvalues(snd22):
    ctx = snd22.ctx
    all_t = [t for shape in snd22.shapes for t in snd22.std[shape]]
    for t in all_t:
        Ft = snd22.F(t)
        assert Ft * Ft == Ft
        cv = snd22.contents(t)
        for k in range(1, ctx.params.n + 1):
            assert ctx.jm(k) * Ft == Ft.scale(cv[k - 1])
    for i, t in enumerate(all_t):
        for s in all_t[i + 1:]:
            assert (snd22.F(t) * snd22.F(s)).is_zero()


def test_trivial_rank_one_case():
    snd = SeminormalData(spec_context(1, 1))
    shape = ((1,),)
    t = snd.std[shape][0]
    assert snd.F(t) == snd.ctx.one()
    assert snd.f(t, t) == snd.ctx.one()
    assert snd.gamma(t) == snd.ctx.ring.one()


def test_seminormal_product_rule(snd22):
    for shape in snd22.shapes:
        stds = snd22.std[shape]
        for s in stds:
            for t in stds:
                for u in stds:
                    for v in stds:
                        prod = snd22.f(s, t) * snd22.f(u, v)
                        if t.rows == u.rows:
                            assert prod == snd22.f(s, v).scale(snd22.gamma(t))
                        else:
                            assert prod.is_zero()


def test_f_basis_spans(snd22):
    basis = SubspaceBasis(snd22.ctx.ring)
    for shape in snd22.shapes:
        for s in snd22.std[shape]:
            for t in snd22.std[shape]:
                assert basis.add(snd22.f(s, t).terms)
    assert basis.rank == snd22.ctx.dimension


def test_m_unitriangular_in_f(snd22):
    # expanding m_st over the f basis only meets pairs above (s, t)
    from cyclohecke.hecke import m_basis
    from cyclohecke.linalg import solve
    ctx = snd22.ctx
    pairs = [(shape, s, t) for shape in snd22.shapes
             for s in snd22.std[shape] for t in snd22.std[shape]]
    f_elts = {(id(s), id(t)): snd22.f(s, t) for _, s, t in pairs}
    columns = [(i, (shape, s, t)) for i, (shape, s, t) in enumerate(pairs)]
    cache = {}
    for shape, s, t in pairs:
        target = m_basis(ctx, s, t, cache)
        keys = set(target.terms)
        for _, (sh2, u, v) in columns:
            keys |= set(f_elts[(id(u), id(v))].terms)
        matrix, rhs = [], []
        for idx in sorted(keys):
            row = {}
            for j, (sh2, u, v) in columns:
                coeff = f_elts[(id(u), id(v))].terms.get(idx)
                if coeff is not None:
                    row[j] = coeff
            matrix.append(row)
            rhs.append(target.terms.get(idx, ctx.ring.zero()))
        sol = solve(ctx.ring, matrix, rhs)
        for j, (sh2, u, v) in columns:
            coeff = sol.get(j, ctx.ring.zero())
            if ctx.ring.is_zero(coeff):
                continue
            if (u.rows, v.rows, sh2) == (s.rows, t.rows, shape):
                assert coeff == ctx.ring.one()
            else:
                assert pair_dominance_lt((u, v), (s, t)), \
                    f"non-dominant pair in the expansion of m_st"


def test_tau_of_f(snd22, snd13):
    for snd in (snd22, snd13):
        ctx = snd.ctx
        for shape in snd.shapes:
            s_lam = snd.schur(shape)
            for s in snd.std[shape]:
                for t in snd.std[shape]:
                    val = snd.f(s, t).tau()
                    if s.rows == t.rows:
                        assert val == ctx.ring.div(snd.gamma(t), s_lam)
                    else:
                        assert ctx.ring.is_zero(val)


def test_central_idempotents(snd22):
    ctx = snd22.ctx
    total = ctx.zero()
    shapes = snd22.shapes
    for shape in shapes:
        Fl = snd22.F_lambda(shape)
        total = total + Fl
        assert Fl * Fl == Fl
        for tok in range(ctx.params.n):
            g = ctx.generator(tok)
            assert Fl * g == g * Fl
    assert total == ctx.one()
    for i, shape in enumerate(shapes):
        for other in shapes[i + 1:]:
            assert (snd22.F_lambda(shape) * snd22.F_lambda(other)).is_zero()


def test_symmetric_polynomial_realization(snd22):
    for shape in snd22.shapes:
        assert snd22.central_idempotent_via_symmetric(shape) == \
            snd22.F_lambda(shape)


def test_characters(snd22, snd13):
    for snd in (snd22, snd13):
        ctx = snd.ctx
        for shape in snd.shapes:
            assert snd.character(shape, ctx.one()) == len(snd.std[shape])
            h = ctx.generator(0) * ctx.generator(ctx.params.n - 1)
            assert snd.character(shape, h) == \
                snd.character_via_regular_trace(shape, h)
    # the trivial representation eats T_i as xi
    assert snd13.character(((3,),), snd13.ctx.generator(1)) == snd13.ctx.xi


def test_schur_independent_of_tableau(snd22):
    # recompute 1/tau(F_t) per tableau; schur() would have raised otherwise
    ctx = snd22.ctx
    for shape in snd22.shapes:
        vals = {ctx.ring.div(ctx.ring.one(), snd22.F(t).tau())
                for t in snd22.std[shape]}
        assert len(vals) == 1


@pytest.mark.parametrize("make,r,n", [
    (spec_context, 2, 2), (spec_context, 1, 3), (fraction_context, 2, 2)])
def test_matrix_character_matches_both_oracles(make, r, n):
    snd = SeminormalData(make(r, n))
    ctx = snd.ctx
    for shape in snd.shapes:
        for idx in ctx.basis_indices():
            h = ctx.from_index(idx)
            value = snd.character(shape, h)
            assert value == snd.character_via_tau(shape, h)
            assert value == snd.character_via_regular_trace(shape, h)


def test_relation_check_rejects_altered_matrix(snd22):
    ctx = snd22.ctx
    shape = next(s for s in snd22.shapes if len(snd22.std[s]) == 2)
    contents = snd22.shape_contents(shape)
    gens = snd22.generator_matrices(shape)
    assert relation_witness(ctx, gens, contents) is None
    altered = [[dict(row) for row in m] for m in gens]
    altered[1][0][0] = altered[1][0][0] + ctx.ring.one()
    assert relation_witness(ctx, altered, contents) is not None
