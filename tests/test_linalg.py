import random
from fractions import Fraction

import pytest

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
