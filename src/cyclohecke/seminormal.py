r"""
Seminormal structure of the split semisimple cyclotomic Hecke algebra.

Everything here assumes the semisimplicity criterion

    prod_{k=1}^{n} (1 + xi + .. + xi^{k-1})
      * prod_{1 <= l < l' <= r, -n < k < n} (xi^k Q_l - Q_{l'})   is a unit,

which is re-checked on construction, never trusted.  The primitive
idempotents are built from Jucys-Murphy interpolation:

    F_t = prod_k prod_{c in C(k), c != c_k(t)} (L_k - c) / (c_k(t) - c),

where C(k) collects the possible contents of entry k over all shapes; the
factor for each k is one polynomial in L_k, applied by left Jucys-Murphy
actions (:func:`hecke.jm_polynomial`).  The seminormal basis is
f_{st} = F_s m_{st} F_t with multiplication rule
f_{st} f_{uv} = delta_{tu} gamma_t f_{sv}.  Schur elements arise as
s_lambda = 1 / tau(F_t), independent of the choice of t.

Characters come from the Ariki-Koike seminormal form (Ariki-Koike 1994,
normalised as in Mathas 2004): matrices rho_lambda(T_i) indexed by the
standard tableaux of lambda, with rho(T_0) = diag(c_1(t)), and rho(T_i)
carrying the diagonal (xi-1) c_{i+1}(t) / (c_{i+1}(t) - c_i(t)) plus, on each
pair {t, s_i t} of standard tableaux, off-diagonal entries 1 and
d_t d_{s_i t} + xi.  The defining relations, and rho(L_m) = diag(c_m(t)),
are checked on the matrices when they are built.  Since the L_m act
diagonally, a character is a linear form on the Ariki-Koike basis,

    chi_lambda(L^c T_w) = sum_t prod_m c_m(t)^{c_m} rho_lambda(T_w)[t, t],

with rho(T_w) the product along the fixed reduced word of w.  The formula
chi_lambda(h) = s_lambda tau(h F_lambda) and the trace of h F_lambda on the
regular representation are kept as independent oracles.

The central idempotent F_lambda = sum_t F_t is recovered a second way, as an
explicit symmetric polynomial in the Jucys-Murphy elements: for each other
shape mu an elementary symmetric function value separates the multisets of
contents, and the normalized product of the separators evaluated at
(L_1, .., L_n) reproduces F_lambda exactly.

``SeminormalData`` builds each of these objects once, memoised per argument.
"""

from __future__ import annotations

from .hecke import (
    HeckeError,
    elementary_symmetric_jm,
    jm_polynomial,
    m_basis,
    memo,
)
from .rings import elementary_symmetric, poly_mul
from .group import coxeter_word
from .tableaux import (
    StdTableau,
    content_sets,
    content_vector,
    enumerate_multipartitions,
    node_below,
    standard_tableaux,
    t_row,
)


class NotSemisimpleError(ArithmeticError):
    pass


def check_semisimple(ctx):
    """(True, None) when the displayed criterion product is a unit, else
    (False, a description of a vanishing factor)."""
    ring, xi = ctx.ring, ctx.xi
    if not ring.is_field:
        raise HeckeError("semisimplicity test needs a field coefficient ring")
    one = ring.one()
    for k in range(1, ctx.params.n + 1):
        total = ring.zero()
        power = one
        for _ in range(k):
            total = total + power
            power = power * xi
        if ring.is_zero(total):
            return False, f"1 + xi + .. + xi^{k - 1} = 0"
    r, n = ctx.params.r, ctx.params.n
    for l in range(1, r + 1):
        for lp in range(l + 1, r + 1):
            for k in range(-(n - 1), n):
                factor = xi ** k * ctx.qs[l - 1] - ctx.qs[lp - 1]
                if ring.is_zero(factor):
                    return False, f"xi^{k} Q{l} - Q{lp} = 0"
    return True, None


# -- the Ariki-Koike seminormal matrices -------------------------------------
#
# A matrix is a list of sparse rows {column: nonzero entry}; rows and columns
# are numbered by the standard tableaux of one shape.

def _mat_mul(ring, a, b):
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for col, y in b[k].items():
                acc[col] = acc[col] + x * y if col in acc else x * y
        out.append({c: v for c, v in acc.items() if not ring.is_zero(v)})
    return out


def _mat_shift(ring, a, s):
    """a + s * identity."""
    out = [dict(row) for row in a]
    for k, row in enumerate(out):
        v = row.get(k, ring.zero()) + s
        if ring.is_zero(v):
            row.pop(k, None)
        else:
            row[k] = v
    return out


def _mat_diag(ring, values):
    return [{k: v} if not ring.is_zero(v) else {} for k, v in enumerate(values)]


def _swap_entries(t, i):
    """s_i t: entries i and i+1 exchanged, standard or not."""
    swap = {i: i + 1, i + 1: i}
    rows = tuple(tuple(tuple(swap.get(v, v) for v in row) for row in comp)
                 for comp in t.rows)
    return StdTableau(t.shape, rows)


def seminormal_matrices(ctx, stds, contents):
    """rho(T_0), .., rho(T_{n-1}) on the basis indexed by the tableaux stds.

    rho(T_0) = diag(c_1(t)).  rho(T_i) has diagonal entry
    d_t = (xi-1) c_{i+1}(t) / (c_{i+1}(t) - c_i(t)); when u = s_i t is
    standard, the pair {t, u} carries off-diagonal entries 1 and
    d_t d_u + xi, the 1 sitting in the column of the tableau that has i+1
    below i.
    """
    ring, xi = ctx.ring, ctx.xi
    pos = {t.rows: k for k, t in enumerate(stds)}
    gens = [_mat_diag(ring, [cv[0] for cv in contents])]
    for i in range(1, ctx.params.n):
        diag = []
        for cv in contents:
            gap = cv[i] - cv[i - 1]
            if ring.is_zero(gap):
                raise NotSemisimpleError("equal neighbouring contents")
            diag.append(ring.div(ctx.xi_m1 * cv[i], gap))
        rows = _mat_diag(ring, diag)
        for k, t in enumerate(stds):
            u = pos.get(_swap_entries(t, i).rows)
            if u is None:
                continue
            if node_below(t.node_of(i + 1), t.node_of(i)):
                entry = ring.one()
            else:
                entry = diag[k] * diag[u] + xi
            if not ring.is_zero(entry):
                rows[u][k] = entry
        gens.append(rows)
    return gens


def relation_witness(ctx, gens, contents):
    """None when the matrices satisfy the defining relations of the algebra
    and rho(L_m) = diag(c_m(t)), else the name of a failed relation."""
    ring, xi, n = ctx.ring, ctx.xi, ctx.params.n

    def mul(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = _mat_mul(ring, out, m)
        return out

    if any(mul(*[_mat_shift(ring, gens[0], -q) for q in ctx.qs])):
        return "cyclotomic"
    for i in range(1, n):
        if any(mul(_mat_shift(ring, gens[i], -xi),
                   _mat_shift(ring, gens[i], ring.one()))):
            return f"quadratic T_{i}"
    if n >= 2 and mul(gens[0], gens[1], gens[0], gens[1]) != \
            mul(gens[1], gens[0], gens[1], gens[0]):
        return "T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0"
    for i in range(1, n - 1):
        if mul(gens[i], gens[i + 1], gens[i]) != \
                mul(gens[i + 1], gens[i], gens[i + 1]):
            return f"braid T_{i} T_{i + 1}"
    for i in range(n):
        for j in range(i + 2, n):
            if mul(gens[i], gens[j]) != mul(gens[j], gens[i]):
                return f"commuting T_{i} T_{j}"
    jm = gens[0]
    for m in range(1, n + 1):
        if m > 1:
            jm = [{c: v * ctx.xi_inv for c, v in row.items()}
                  for row in mul(gens[m - 1], jm, gens[m - 1])]
        if jm != _mat_diag(ring, [cv[m - 1] for cv in contents]):
            return f"L_{m} eigenvalues"
    return None


class SeminormalData:
    """Per-context lazy store of seminormal structure."""

    def __init__(self, ctx):
        ok, witness = check_semisimple(ctx)
        if not ok:
            raise NotSemisimpleError(f"parameters are not semisimple: {witness}")
        self.ctx = ctx
        self.shapes = enumerate_multipartitions(ctx.params.r, ctx.params.n)
        self.std = {shape: standard_tableaux(shape) for shape in self.shapes}
        self.content_sets = content_sets(ctx.params.r, ctx.params.n,
                                         ctx.xi, ctx.qs)

    # -- raw combinatorial data ------------------------------------------

    def contents(self, t):
        return content_vector(t, self.ctx.xi, self.ctx.qs)

    # -- idempotents -------------------------------------------------------

    @memo
    def F(self, t):
        ctx, ring = self.ctx, self.ctx.ring
        cv = self.contents(t)
        out = ctx.one()
        for k in range(1, ctx.params.n + 1):
            factor = [ring.one()]
            for c in self.content_sets[k - 1]:
                if c == cv[k - 1]:
                    continue
                denom = cv[k - 1] - c
                if ring.is_zero(denom):
                    raise NotSemisimpleError("content collision under semisimplicity")
                inv = ring.invert(denom)
                factor = poly_mul(ring, factor, [-c * inv, inv])
            out = jm_polynomial(ctx, k, factor, out)
        return out

    @memo
    def F_lambda(self, shape):
        out = self.ctx.zero()
        for t in self.std[shape]:
            out = out + self.F(t)
        return out

    # -- seminormal bases ----------------------------------------------------

    @memo
    def f(self, s, t):
        return self.F(s) * m_basis(self.ctx, s, t) * self.F(t)

    def _diag_scalar(self, elt, squared):
        """The scalar gamma with squared == gamma * elt."""
        ring = self.ctx.ring
        if elt.is_zero():
            raise NotSemisimpleError("vanishing diagonal seminormal element")
        idx = next(iter(elt.terms))
        gamma = ring.div(squared.terms.get(idx, ring.zero()), elt.terms[idx])
        if squared != elt.scale(gamma):
            raise NotSemisimpleError("diagonal element is not quasi-idempotent")
        return gamma

    @memo
    def gamma(self, t):
        ftt = self.f(t, t)
        gamma = self._diag_scalar(ftt, ftt * ftt)
        if self.ctx.ring.is_zero(gamma):
            raise NotSemisimpleError("gamma_t vanished")
        return gamma

    # -- the seminormal matrix representation ---------------------------------

    @memo
    def shape_contents(self, shape):
        """Content vectors of the standard tableaux of shape, in std order."""
        return [self.contents(t) for t in self.std[shape]]

    @memo
    def generator_matrices(self, shape):
        """rho_lambda(T_0), .., rho_lambda(T_{n-1}); the defining relations
        are checked on them when they are built."""
        contents = self.shape_contents(shape)
        gens = seminormal_matrices(self.ctx, self.std[shape], contents)
        failed = relation_witness(self.ctx, gens, contents)
        if failed is not None:
            raise AssertionError(
                f"seminormal matrices of {shape} break the relation {failed}")
        return gens

    @memo
    def _word_matrix(self, shape, word):
        """rho_lambda of the generator word, memoised with its prefixes."""
        ring = self.ctx.ring
        if not word:
            return _mat_diag(ring, [ring.one()] * len(self.std[shape]))
        return _mat_mul(ring, self._word_matrix(shape, word[:-1]),
                        self.generator_matrices(shape)[word[-1]])

    @memo
    def _basis_character(self, shape, idx):
        """chi_lambda(L^c T_w) for the basis element at position idx."""
        ring = self.ctx.ring
        c, w = self.ctx.index_label(idx)
        rho = self._word_matrix(shape, coxeter_word(w))
        total = ring.zero()
        for k, cv in enumerate(self.shape_contents(shape)):
            term = rho[k].get(k)
            if term is None:
                continue
            for cm, content in zip(c, cv):
                for _ in range(cm):
                    term = term * content
            total = total + term
        return total

    # -- Schur elements and characters ---------------------------------------

    @memo
    def schur(self, shape):
        ring = self.ctx.ring
        values = []
        for t in self.std[shape]:
            tf = self.F(t).tau()
            if ring.is_zero(tf):
                raise NotSemisimpleError("tau(F_t) vanished")
            values.append(ring.div(ring.one(), tf))
        first = values[0]
        if any(not (v == first) for v in values[1:]):
            raise NotSemisimpleError("Schur element depends on the tableau")
        return first

    def character(self, shape, h):
        """chi_lambda(h), linear in the Ariki-Koike coordinates of h:
        chi_lambda(L^c T_w) = sum_t prod_m c_m(t)^{c_m} rho_lambda(T_w)[t, t]."""
        ring = self.ctx.ring
        total = ring.zero()
        for idx, coeff in h.terms.items():
            value = self._basis_character(shape, idx)
            if not ring.is_zero(value):
                total = total + coeff * value
        return total

    def character_via_tau(self, shape, h):
        """Oracle: chi_lambda(h) = s_lambda * tau(h F_lambda)."""
        return self.schur(shape) * (h * self.F_lambda(shape)).tau()

    def character_via_regular_trace(self, shape, h):
        """Trace of right multiplication by h F_lambda over dim of the simple."""
        ctx = self.ctx
        x = h * self.F_lambda(shape)
        trace = ctx.ring.zero()
        for idx in ctx.basis_indices():
            prod = ctx.from_index(idx) * x
            trace = trace + prod.terms.get(idx, ctx.ring.zero())
        dim = len(self.std[shape])
        return ctx.ring.div(trace, ctx.ring.from_int(dim))

    # -- the symmetric-polynomial realization of F_lambda ----------------------

    def separating_exponent(self, lam, mu):
        """Least m with e_m separating the content multisets of lam and mu."""
        ring = self.ctx.ring
        cv_l = list(content_vector(t_row(lam), self.ctx.xi, self.ctx.qs))
        cv_m = list(content_vector(t_row(mu), self.ctx.xi, self.ctx.qs))
        for m in range(1, self.ctx.params.n + 1):
            a = elementary_symmetric(cv_l, m, ring.one())
            b = elementary_symmetric(cv_m, m, ring.one())
            if not ring.is_zero(a - b):
                return m, a, b
        raise NotSemisimpleError(
            "no separating elementary symmetric exponent; inconsistent data")

    @memo
    def _esym(self, m):
        return elementary_symmetric_jm(self.ctx, m)

    def central_idempotent_via_symmetric(self, lam):
        """g_lambda(L_1, .., L_n): equals F_lambda as an algebra element."""
        ctx = self.ctx
        out = ctx.one()
        for mu in self.shapes:
            if mu == lam:
                continue
            m, a, b = self.separating_exponent(lam, mu)
            out = out * (self._esym(m) - ctx.one().scale(b))
            out = out.scale(ctx.ring.invert(a - b))
        return out

    # -- resolution of identity ------------------------------------------------

    def resolution_of_identity(self):
        total = self.ctx.zero()
        for shape in self.shapes:
            total = total + self.F_lambda(shape)
        return total
