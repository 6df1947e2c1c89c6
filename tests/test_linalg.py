from fractions import Fraction

import pytest

from conftest import fraction_context, spec_context

from cyclohecke.center import ClassPolynomials
from cyclohecke.linalg import Elimination, invert_matrix, solve
from cyclohecke.rings import RingSpec


@pytest.mark.parametrize("make", [spec_context, fraction_context])
def test_factored_solve_matches_inverse(make):
    polys = ClassPolynomials(make(2, 2))
    ring = polys.ctx.ring
    rows = polys.character_matrix()
    cols = [info.label for info in polys.classes]
    inverse = invert_matrix(ring, [[row[c] for c in cols] for row in rows])
    elim = Elimination(ring, rows)
    rhs_list = [[ring.from_int(k + 2 * j) for k in range(len(rows))]
                for j in range(3)]
    rhs_list.append([ring.zero()] * len(rows))
    rhs_list.append([ring.xi() if k == 1 else ring.zero()
                     for k in range(len(rows))])
    for rhs in rhs_list:
        sol = elim.solve(rhs)
        for j, col in enumerate(cols):
            want = ring.zero()
            for k, b in enumerate(rhs):
                want = want + inverse[j][k] * b
            assert sol.get(col, ring.zero()) == want
        assert solve(ring, rows, rhs) == sol


def test_singular_and_inconsistent_systems_raise():
    ring = RingSpec.rational()
    singular = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    with pytest.raises(ArithmeticError):
        solve(ring, singular, [Fraction(1), Fraction(2)])
    with pytest.raises(ArithmeticError):
        Elimination(ring, singular)
    tall = Elimination(ring, [{0: Fraction(1)}, {0: Fraction(3)}])
    assert tall.solve([Fraction(2), Fraction(6)]) == {0: Fraction(2)}
    with pytest.raises(ArithmeticError):
        tall.solve([Fraction(2), Fraction(5)])
