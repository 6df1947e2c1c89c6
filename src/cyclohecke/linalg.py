r"""
Sparse exact linear algebra over the coefficient fields.

Vectors are dicts ``{column: coefficient}``; a subspace is kept as a reduced
row-echelon basis keyed by pivot columns.  Elimination is plain field
elimination; pivots prefer rows with few terms and structurally small
coefficients to limit expression swell in the function-field cases.
"""

from __future__ import annotations


class SubspaceBasis:
    """A growing row-echelon basis over a field RingSpec."""

    def __init__(self, ring):
        self.ring = ring
        self.rows = {}        # pivot column -> reduced row (dict)

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        vec = {c: v for c, v in vec.items() if not self.ring.is_zero(v)}
        while True:
            hits = [c for c in vec if c in self.rows]
            if not hits:
                return vec
            for col in sorted(hits):
                coeff = vec.get(col)
                if coeff is None or self.ring.is_zero(coeff):
                    continue
                _subtract_multiple(self.ring, vec, coeff, self.rows[col])

    def reduce(self, vec):
        """Remainder of vec against the current basis."""
        return self._reduce(vec)

    def contains(self, vec):
        return not self._reduce(vec)

    def add(self, vec):
        """Insert a vector; returns True when the rank grew."""
        rem = self._reduce(vec)
        if not rem:
            return False
        pivot = min(rem, key=lambda col: (_size(rem[col]), col))
        inv = self.ring.invert(rem[pivot])
        row = {c: v * inv for c, v in rem.items()}
        self._back_substitute(pivot, row)
        self.rows[pivot] = row
        return True

    def _back_substitute(self, pivot, row):
        for piv2, row2 in self.rows.items():
            coeff = row2.get(pivot)
            if coeff is None or self.ring.is_zero(coeff):
                continue
            _subtract_multiple(self.ring, row2, coeff, row)

    def vectors(self):
        return [dict(r) for _, r in sorted(self.rows.items())]


def span_rank(ring, vectors):
    basis = SubspaceBasis(ring)
    for v in vectors:
        basis.add(v)
    return basis


def nullspace(ring, rows, columns):
    """Nullspace of the matrix given as a list of sparse rows over the given
    column labels.  Returns a list of sparse solution vectors."""
    # Gaussian elimination tracking pivots
    work = [dict(r) for r in rows if r]
    pivots = {}
    for row in work:
        # reduce against chosen pivots
        for col, prow in pivots.items():
            coeff = row.get(col)
            if coeff is None or ring.is_zero(coeff):
                continue
            _subtract_multiple(ring, row, coeff, prow)
        row = {c: v for c, v in row.items() if not ring.is_zero(v)}
        if not row:
            continue
        piv = min(row, key=lambda c: (_size(row[c]), c))
        inv = ring.invert(row[piv])
        row = {c: v * inv for c, v in row.items()}
        for col2, prow2 in pivots.items():
            coeff = prow2.get(piv)
            if coeff is None or ring.is_zero(coeff):
                continue
            _subtract_multiple(ring, prow2, coeff, row)
        pivots[piv] = row
    free = [c for c in columns if c not in pivots]
    sols = []
    for fc in free:
        vec = {fc: ring.one()}
        for piv, row in pivots.items():
            coeff = row.get(fc)
            if coeff is not None and not ring.is_zero(coeff):
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


class Elimination:
    """Gauss-Jordan elimination of a matrix, recorded once so that each
    right-hand side costs only a replay of the row operations.

    The matrix is a list of sparse rows over column labels; rows may
    outnumber columns.  Raises ArithmeticError when the columns are
    dependent.
    """

    def __init__(self, ring, matrix):
        self.ring = ring
        self.ops = []         # (target, source, coeff): b[t] -= coeff b[s];
                              # (target, None, inv): b[t] *= inv
        self.pivots = {}      # pivot column -> row number
        self.dependent = []   # rows eliminated to zero
        reduced = {}          # pivot column -> reduced row
        for i, row in enumerate(matrix):
            row = dict(row)
            for col, prow in reduced.items():
                coeff = row.get(col)
                if coeff is None or ring.is_zero(coeff):
                    continue
                _subtract_multiple(ring, row, coeff, prow)
                self.ops.append((i, self.pivots[col], coeff))
            live = [c for c in row if not ring.is_zero(row[c])]
            if not live:
                self.dependent.append(i)
                continue
            piv = min(live, key=lambda c: (_size(row[c]), c))
            inv = ring.invert(row[piv])
            row = {c: v * inv for c, v in row.items()}
            self.ops.append((i, None, inv))
            for col2, prow2 in reduced.items():
                coeff = prow2.get(piv)
                if coeff is None or ring.is_zero(coeff):
                    continue
                _subtract_multiple(ring, prow2, coeff, row)
                self.ops.append((self.pivots[col2], i, coeff))
            reduced[piv] = row
            self.pivots[piv] = i
        if len(self.pivots) < len({c for row in matrix for c in row}):
            raise ArithmeticError("singular linear system")

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
    """Inverse of a dense square matrix given as list of lists."""
    n = len(matrix)
    aug = [list(row) + [ring.one() if i == j else ring.zero() for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        best = None
        for i in range(col, n):
            v = aug[i][col]
            if not ring.is_zero(v):
                size = _size(v)
                if best is None or size < best:
                    piv, best = i, size
        if piv is None:
            raise ArithmeticError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = ring.invert(aug[col][col])
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i == col:
                continue
            f = aug[i][col]
            if ring.is_zero(f):
                continue
            aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
