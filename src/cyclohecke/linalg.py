r"""
Sparse exact linear algebra over the coefficient fields.

Vectors are dicts ``{column: coefficient}``.  There is one elimination,
``SubspaceBasis``: a reduced row-echelon basis keyed by pivot columns, in
which every stored row is 1 at its pivot and 0 at every other pivot.  That
invariant is what lets a vector be reduced in one pass over the pivots.
Pivots prefer entries with few terms and structurally small coefficients to
limit expression swell in the function-field cases.

Everything else reads a ``SubspaceBasis``: ``nullspace`` takes the free
columns of the row space, ``Elimination`` records each row operation of the
echelon build so that a right-hand side costs only a replay, and ``solve``
and ``invert_matrix`` are replays of an ``Elimination``.
"""

from __future__ import annotations


class SubspaceBasis:
    """A growing row-echelon basis over a field RingSpec."""

    def __init__(self, ring):
        self.ring = ring
        self.rows = {}        # pivot column -> row, 1 at its pivot, 0 at other pivots

    @property
    def rank(self):
        return len(self.rows)

    def _record(self, target, source, coeff):
        """Hook called on every row operation of ``add``.  Rows are named by
        pivot column, None being the vector under insertion; the operation
        is ``row[target] -= coeff * row[source]``, or ``row[target] *= coeff``
        when target == source."""

    def _reduce(self, vec, record):
        vec = {c: v for c, v in vec.items() if not self.ring.is_zero(v)}
        for col, row in self.rows.items():
            coeff = vec.get(col)
            if coeff is not None:
                _subtract_multiple(self.ring, vec, coeff, row)
                if record:
                    self._record(None, col, coeff)
        return vec

    def reduce(self, vec):
        """Remainder of vec against the current basis."""
        return self._reduce(vec, False)

    def contains(self, vec):
        return not self._reduce(vec, False)

    def add(self, vec):
        """Insert a vector; returns True when the rank grew."""
        rem = self._reduce(vec, True)
        if not rem:
            return False
        pivot = min(rem, key=lambda col: (_size(rem[col]), col))
        inv = self.ring.invert(rem[pivot])
        row = {c: v * inv for c, v in rem.items()}
        self._record(None, None, inv)
        for col, row2 in self.rows.items():
            coeff = row2.get(pivot)
            if coeff is not None:
                _subtract_multiple(self.ring, row2, coeff, row)
                self._record(col, None, coeff)
        self.rows[pivot] = row
        return True

    def vectors(self):
        return [dict(r) for _, r in sorted(self.rows.items())]


def span(ring, vectors):
    """The SubspaceBasis of the span of vectors."""
    basis = SubspaceBasis(ring)
    for v in vectors:
        basis.add(v)
    return basis


def nullspace(ring, rows, columns):
    """Nullspace of the matrix given as a list of sparse rows over the given
    column labels: one solution vector per free column of the row space."""
    pivots = span(ring, rows).rows
    sols = []
    for fc in columns:
        if fc in pivots:
            continue
        vec = {fc: ring.one()}
        for piv, row in pivots.items():
            coeff = row.get(fc)
            if coeff is not None:
                vec[piv] = -coeff
        sols.append(vec)
    return sols


def _subtract_multiple(ring, row, coeff, prow):
    """row -= coeff * prow, in place, dropping entries that vanish."""
    for c, v in prow.items():
        new = row.get(c, ring.zero()) - coeff * v
        if ring.is_zero(new):
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
    outnumber columns.  Raises ArithmeticError when the columns are
    dependent.
    """

    def __init__(self, ring, matrix):
        super().__init__(ring)
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
