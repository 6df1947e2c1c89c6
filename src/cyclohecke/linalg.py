r"""
Sparse exact linear algebra over the coefficient fields.

Vectors are dicts ``{column: coefficient}``.  There is one elimination,
``SubspaceBasis``: a reduced row-echelon basis keyed by pivot columns, in
which every stored row is nonzero at its pivot and 0 at every other pivot.
That invariant is what lets a vector be reduced in one pass that visits only
the pivots the vector itself carries: clearing one pivot never changes the
vector at another.

Over Q (the ``rational`` and ``rational-specialization`` kinds) a stored row
is a primitive integer vector with a positive pivot.  An input vector may
mix ``int`` and ``Fraction`` entries (the commutator vectors are built from
integer straightening tables); it is cleared to integers with the lcm of
its denominators and reduced by the cross-multiplied update
``v = a v - c row``, ``(a, c) = (row[p], v[p]) / gcd``, so the loop builds
no ``Fraction``; ``add`` divides each new and back-substituted row by its
content.  Over the other fields a stored row is scaled to 1 at its pivot
and the update is ``v -= v[p] row``.  Either way ``rows`` shows rows that are
1 at their pivot, over Q divided out of the integer rows on each access with
no second copy kept, and ``reduce`` returns the exact remainder.

The pivot of a new row is one of its columns.  Over the function fields
it is an entry with the fewest terms, which limits expression swell.  Over
Q and the cyclotomic fields every entry has the same size, and ``span``,
which sees the whole family first, pivots on the column that the fewest
of its vectors carry: such a column leaves fewer stored rows to
back-substitute and keeps the basis sparse.  Ties go to the smallest
column.  A ``SubspaceBasis`` grown one vector at a time knows no counts and
orders by entry size, then column.  Over Q and the cyclotomic fields either
rule is a fixed order on the columns, each stored row starts at its pivot
in that order, and so the basis is the reduced echelon form for that
order, whatever order the vectors come in.

Everything else reads a ``SubspaceBasis``: ``nullspace`` takes the free
columns of the row space, and its solutions, each 1 at its own free column
and 0 at the others, are a basis in stored form for ``from_echelon``, with
nothing left to eliminate; over Q each entry is ``-row[fc] / row[pivot]``
read off the integer rows.  ``Elimination`` records each row operation of the
echelon build so that a right-hand side costs only a replay, and ``solve``
and ``invert_matrix`` are replays of an ``Elimination``.  ``Elimination``
keeps field rows over every ring: its recorded multipliers are replayed on
``Fraction`` right-hand sides, and integer rows would record more operations
for the replay to run.  It still serves the class-polynomial rows over the
cyclotomic and function fields, the acceptance gate's oracles (the
character-matrix solve among them) and ``center_bases_yz``; over Q the
class-polynomial rows replay it only once per unit right-hand side, to
build an integer inverse.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import not_

from .rings import RATIONAL_KINDS

# coefficient kinds whose entries differ in size (number of terms)
_SIZED_KINDS = ("laurent", "fraction-of-laurent")


class SubspaceBasis:
    """A growing row-echelon basis over a field RingSpec."""

    def __init__(self, ring, counts=None):
        self.ring = ring
        self._integral = ring.kind in RATIONAL_KINDS
        self._rows = {}       # pivot column -> stored row, 0 at other pivots
        self._counts = counts  # column -> how many input vectors carry it

    @classmethod
    def from_echelon(cls, ring, rows):
        """The basis whose rows are ``rows``, {pivot column: row}, each row 1
        at its pivot and 0 at every other pivot, as the ``nullspace``
        solutions are when keyed by their free columns: nothing is
        eliminated.  Over Q a row is stored times the lcm of its
        denominators, which is primitive with that lcm as its pivot."""
        basis = cls(ring)
        for pivot, row in rows.items():
            if basis._integral:
                scale = lcm(*(v.denominator for v in row.values()))
                basis._rows[pivot] = {c: v.numerator * (scale // v.denominator)
                                      for c, v in row.items()}
            else:
                basis._rows[pivot] = dict(row)
        return basis

    @property
    def rank(self):
        return len(self._rows)

    @property
    def rows(self):
        """{pivot column: row}, each row 1 at its pivot and 0 at every other
        pivot.  Over Q this is read off the integer rows on each access."""
        if not self._integral:
            return self._rows
        return {pivot: {c: Fraction(v, row[pivot]) for c, v in row.items()}
                for pivot, row in self._rows.items()}

    def _record(self, target, source, coeff):
        """Hook called on every row operation of ``add`` over field rows.
        Rows are named by pivot column, None being the vector under
        insertion; the operation is ``row[target] -= coeff * row[source]``,
        or ``row[target] *= coeff`` when target == source."""

    def _eliminate(self, vec, col, row):
        """Clear vec[col] in place with the stored row of pivot col; returns
        the factor that vec was multiplied by.  Over field rows this is
        vec -= vec[col] * row.  Over Q it is vec = a * vec - c * row with
        (a, c) = (row[col], vec[col]) / gcd, so that no Fraction is built."""
        coeff = vec[col]
        scale = 1
        if self._integral:
            g = gcd(row[col], coeff)
            scale, coeff = row[col] // g, coeff // g
            if scale != 1:
                for c in vec:
                    vec[c] *= scale
        _subtract_multiple(not_ if self._integral else self.ring.is_zero,
                           vec, coeff, row)
        return scale

    def _normalise(self, rem, pivot):
        """The stored form of a row: over Q divided by its content with a
        positive pivot, elsewhere scaled to 1 at the pivot."""
        if self._integral:
            content = gcd(*rem.values())
            if rem[pivot] < 0:
                content = -content
            return rem if content == 1 else {c: v // content for c, v in rem.items()}
        inv = self.ring.invert(rem[pivot])
        self._record(None, None, inv)
        return {c: v * inv for c, v in rem.items()}

    def _reduce(self, vec, record):
        """(rem, scale) with rem / scale the remainder of vec.  Over Q, rem
        is an integer vector; elsewhere scale is 1.  Only the pivots that vec
        carries are visited: a stored row is 0 at every other pivot, so
        clearing one pivot never changes vec at another."""
        rows = self._rows
        if self._integral:
            scale = lcm(*(v.denominator for v in vec.values()))
            vec = {c: v.numerator * (scale // v.denominator)
                   for c, v in vec.items() if v}
        else:
            is_zero = self.ring.is_zero
            scale = 1
            vec = {c: v for c, v in vec.items() if not is_zero(v)}
        for col in [c for c in vec if c in rows]:
            coeff = vec[col]
            scale *= self._eliminate(vec, col, rows[col])
            if record:
                self._record(None, col, coeff)
        return vec, scale

    def reduce(self, vec):
        """Remainder of vec against the current basis."""
        rem, scale = self._reduce(vec, False)
        if self._integral:
            return {c: Fraction(v, scale) for c, v in rem.items()}
        return rem

    def contains(self, vec):
        return not self._reduce(vec, False)[0]

    def add(self, vec):
        """Insert a vector; returns True when the rank grew."""
        rem, _ = self._reduce(vec, True)
        if not rem:
            return False
        pivot = self._pivot(rem)
        row = self._normalise(rem, pivot)
        rows = self._rows
        for col in [col for col, row2 in rows.items() if pivot in row2]:
            row2 = rows[col]
            coeff = row2[pivot]
            self._eliminate(row2, pivot, row)
            self._record(col, None, coeff)
            if self._integral:
                rows[col] = self._normalise(row2, col)
        rows[pivot] = row
        return True

    def _pivot(self, rem):
        """The pivot of a new row: the column the fewest input vectors carry
        when those counts are known, else an entry of fewest terms; ties go
        to the smallest column."""
        counts = self._counts
        if counts is None:
            return min(rem, key=lambda col: (_size(rem[col]), col))
        return min(rem, key=lambda col: (counts[col], col))

    def vectors(self):
        return [dict(r) for _, r in sorted(self.rows.items())]


def span(ring, vectors):
    """The SubspaceBasis of the span of vectors.  Where every entry has the
    same size (over Q and the cyclotomic fields) it pivots on the column the
    fewest of the vectors carry."""
    vectors = list(vectors)
    counts = None
    if ring.kind not in _SIZED_KINDS:
        counts = Counter(c for v in vectors for c in v)
    basis = SubspaceBasis(ring, counts)
    for v in vectors:
        basis.add(v)
    return basis


def nullspace(ring, rows, columns):
    """Nullspace of the matrix given as a list of sparse rows over the given
    column labels: one solution vector per free column of the row space, in
    column order.  Each solution is 1 at its own free column, its first key,
    and 0 at every other free column, so the solutions keyed by their free
    columns are already a ``SubspaceBasis.from_echelon`` basis.  Its entry
    at a pivot is -row[fc] / row[pivot], read off the stored rows."""
    basis = span(ring, rows)
    pivots, integral, one = basis._rows, basis._integral, ring.one()
    sols = []
    for fc in columns:
        if fc in pivots:
            continue
        vec = {fc: one}
        for piv, row in pivots.items():
            coeff = row.get(fc)
            if coeff is not None:
                vec[piv] = Fraction(-coeff, row[piv]) if integral else -coeff
        sols.append(vec)
    return sols


def _subtract_multiple(is_zero, row, coeff, prow):
    """row -= coeff * prow, in place, dropping entries that vanish.  An entry
    that row lacks becomes -(coeff * v) with no zero to subtract from."""
    for c, v in prow.items():
        old = row.get(c)
        new = -(coeff * v) if old is None else old - coeff * v
        if is_zero(new):
            row.pop(c, None)
        else:
            row[c] = new


def _size(coeff):
    terms = getattr(coeff, "terms", None)
    if terms is not None:
        return len(terms)
    num = getattr(coeff, "num", None)
    if num is not None:
        return len(num.terms) + 1
    return 1


class Elimination(SubspaceBasis):
    """The echelon build of a matrix's rows, recorded once so that each
    right-hand side costs only a replay of the row operations.

    The matrix is a list of sparse rows over column labels; rows may
    outnumber columns.  The unknowns are the keys of the rows, explicit
    zeros included: a column that is zero in every row still counts, so a
    caller that lists every unknown in every row gets an ArithmeticError,
    never a missing entry, when the columns are dependent.
    """

    def __init__(self, ring, matrix):
        super().__init__(ring)
        # field rows over every ring: the replay needs field multipliers
        self._integral = False
        self.ops = []         # (target, source, coeff): b[t] -= coeff b[s];
                              # (target, None, inv): b[t] *= inv
        self.pivots = {}      # pivot column -> row number
        self.dependent = []   # rows eliminated to zero
        for i, row in enumerate(matrix):
            self._current = i
            if self.add(row):
                self.pivots[next(reversed(self.rows))] = i   # the newest pivot
            else:
                self.dependent.append(i)
        if self.rank < len({c for row in matrix for c in row}):
            raise ArithmeticError("singular linear system")

    def _record(self, target, source, coeff):
        def number(col):
            return self._current if col is None else self.pivots[col]
        self.ops.append((number(target),
                         None if source == target else number(source), coeff))

    def solve(self, rhs):
        """{column: value} with matrix * x = rhs; raises ArithmeticError
        when rhs lies outside the column space."""
        ring = self.ring
        b = list(rhs)
        for target, source, coeff in self.ops:
            if source is None:
                if not ring.is_zero(b[target]):
                    b[target] = b[target] * coeff
            elif not ring.is_zero(b[source]):
                b[target] = b[target] - coeff * b[source]
        if any(not ring.is_zero(b[i]) for i in self.dependent):
            raise ArithmeticError("inconsistent linear system")
        return {col: b[i] for col, i in self.pivots.items()}


def solve(ring, matrix, rhs):
    """Solve matrix * x = rhs for a list of sparse rows with independent
    columns; raises ArithmeticError on a singular or inconsistent system."""
    return Elimination(ring, matrix).solve(rhs)


def invert_matrix(ring, matrix):
    """Inverse of a dense square matrix given as list of lists; column k is
    the solution for the k-th unit vector."""
    n = len(matrix)
    elim = Elimination(ring, [
        {j: v for j, v in enumerate(row) if not ring.is_zero(v)} for row in matrix
    ])
    if elim.rank < n:
        raise ArithmeticError("singular matrix")
    zero, one = ring.zero(), ring.one()
    cols = [elim.solve([one if i == k else zero for i in range(n)])
            for k in range(n)]
    return [[cols[k][j] for k in range(n)] for j in range(n)]
