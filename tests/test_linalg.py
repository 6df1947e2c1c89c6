import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_context, spec_context

from cyclohecke.center import ClassPolynomials
from cyclohecke.linalg import (
    Elimination,
    SubspaceBasis,
    invert_matrix,
    nullspace,
    solve,
    span,
)
from cyclohecke.rings import RingSpec


def _character_matrix(make):
    polys = ClassPolynomials(make(2, 2))
    cols = [info.label for info in polys.classes]
    return polys.ctx.ring, polys.character_matrix(), cols


def _dot(ring, row, vec):
    out = ring.zero()
    for c, v in row.items():
        out = out + v * vec.get(c, ring.zero())
    return out


def _random_rows(rng, nrows, ncols):
    return [{c: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for c in range(ncols) if rng.random() < 0.4}
            for _ in range(nrows)]


@pytest.mark.parametrize("make", [spec_context, fraction_context])
def test_factored_solve_satisfies_system(make):
    ring, rows, _ = _character_matrix(make)
    elim = Elimination(ring, rows)
    rhs_list = [[ring.from_int(k + 2 * j) for k in range(len(rows))]
                for j in range(3)]
    rhs_list.append([ring.zero()] * len(rows))
    rhs_list.append([ring.xi() if k == 1 else ring.zero()
                     for k in range(len(rows))])
    for rhs in rhs_list:
        sol = elim.solve(rhs)
        for row, b in zip(rows, rhs):
            assert _dot(ring, row, sol) == b
        assert solve(ring, rows, rhs) == sol


@pytest.mark.parametrize("make", [spec_context, fraction_context])
def test_inverse_is_two_sided(make):
    ring, rows, cols = _character_matrix(make)
    a = [[row[c] for c in cols] for row in rows]
    inv = invert_matrix(ring, a)
    n = len(a)
    for x, y in ((a, inv), (inv, a)):
        for i in range(n):
            for j in range(n):
                entry = ring.zero()
                for k in range(n):
                    entry = entry + x[i][k] * y[k][j]
                assert entry == (ring.one() if i == j else ring.zero())


def test_singular_and_inconsistent_systems_raise():
    ring = RingSpec.rational()
    singular = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    with pytest.raises(ArithmeticError):
        solve(ring, singular, [Fraction(1), Fraction(2)])
    with pytest.raises(ArithmeticError):
        Elimination(ring, singular)
    # an explicit zero column is an unknown, so this system is singular too
    with pytest.raises(ArithmeticError):
        Elimination(ring, [{0: Fraction(1), 1: Fraction(0)}] * 2)
    with pytest.raises(ArithmeticError):
        invert_matrix(ring, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ArithmeticError):
        invert_matrix(ring, [[Fraction(1), Fraction(0)], [Fraction(3), Fraction(0)]])
    tall = Elimination(ring, [{0: Fraction(1)}, {0: Fraction(3)}])
    assert tall.solve([Fraction(2), Fraction(6)]) == {0: Fraction(2)}
    with pytest.raises(ArithmeticError):
        tall.solve([Fraction(2), Fraction(5)])


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_is_killed_and_has_full_dimension(seed):
    rng = random.Random(seed)
    ring = RingSpec.rational()
    ncols = 9
    rows = _random_rows(rng, 5, ncols)
    # dependent rows: sums and multiples of earlier ones
    rows.append({c: rows[0].get(c, Fraction(0)) + 2 * rows[1].get(c, Fraction(0))
                 for c in range(ncols)})
    rows.append({c: -v for c, v in rows[2].items()})
    columns = list(range(ncols))
    sols = nullspace(ring, rows, columns)
    rank = span(ring, rows).rank
    assert len(sols) == ncols - rank
    assert span(ring, sols).rank == len(sols)
    for vec in sols:
        for row in rows:
            assert _dot(ring, row, vec) == 0


@pytest.mark.parametrize("seed", range(4))
def test_stored_rows_are_unit_at_own_pivot_and_zero_at_others(seed):
    rng = random.Random(seed)
    ring = RingSpec.rational()
    basis = SubspaceBasis(ring)
    vectors = _random_rows(rng, 12, 8)
    vectors.append({c: 2 * v for c, v in vectors[0].items()})
    for vec in vectors:
        basis.add(vec)
        for piv, row in basis.rows.items():
            assert row[piv] == 1
            assert all(other == piv or other not in row for other in basis.rows)
    for vec in vectors:
        assert basis.contains(vec)
        assert not basis.reduce(vec)
    outside = {8: Fraction(1)}
    assert basis.reduce(outside) == outside and not basis.contains(outside)


# -- the kernel over Q, against a dense Fraction Gauss-Jordan --------------------

_NCOLS = 8
_fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_sparse = st.dictionaries(st.integers(0, _NCOLS - 1), _fractions, max_size=5)


@st.composite
def _vectors(draw):
    """Sparse vectors, some of them combinations of earlier ones."""
    out = draw(st.lists(_sparse, min_size=1, max_size=7))
    picks = st.tuples(st.integers(0, len(out) - 1), st.integers(0, len(out) - 1),
                      _fractions, _fractions)
    for i, j, a, b in draw(st.lists(picks, max_size=4)):
        out.append({c: a * out[i].get(c, 0) + b * out[j].get(c, 0)
                    for c in set(out[i]) | set(out[j])})
    return out


def _dense_rank(vectors):
    m = [[v.get(c, Fraction(0)) for c in range(_NCOLS)] for v in vectors]
    rank = 0
    for col in range(_NCOLS):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("ring", [RingSpec.rational(),
                                  RingSpec.specialized(2, [1, 100])],
                         ids=["rational", "specialized"])
@settings(max_examples=80, deadline=None)
@given(vectors=_vectors(), probe=_sparse)
def test_kernel_over_q_matches_dense_gauss_jordan(ring, vectors, probe):
    basis = SubspaceBasis(ring)
    for k, vec in enumerate(vectors):
        basis.add(vec)
        for piv, row in basis.rows.items():
            assert row[piv] == 1
            assert all(other == piv or other not in row for other in basis.rows)
        for piv, row in basis._rows.items():
            assert all(type(v) is int for v in row.values())
            assert row[piv] > 0 and math.gcd(*row.values()) == 1
        assert all(basis.contains(v) for v in vectors[:k + 1])
    assert basis.rank == _dense_rank(vectors)

    rows = basis.rows
    for vec in vectors + [probe]:
        rem = basis.reduce(vec)
        assert all(type(v) is Fraction and v for v in rem.values())
        assert not set(rem) & set(rows)
        diff = {c: vec.get(c, 0) - rem.get(c, 0) for c in set(vec) | set(rem)}
        assert basis.contains(diff)
        want = {c: Fraction(v) for c, v in vec.items()}
        for piv, row in rows.items():
            for c, v in row.items():
                want[c] = want.get(c, 0) - vec.get(piv, 0) * v
        assert rem == {c: v for c, v in want.items() if v}

    sols = nullspace(ring, vectors, range(_NCOLS))
    assert len(sols) == _NCOLS - basis.rank
    for sol in sols:
        for vec in vectors:
            assert _dot(ring, vec, sol) == 0
