r"""
Center, cocenter and class polynomials of the cyclotomic Hecke algebra.

The commutator subspace [H, H] is spanned by the commutators of basis
elements with the generators: the identity [a, xy] = [ax, y] + [ya, x]
reduces arbitrary commutators to generator commutators.  Over any of the
supported coefficient fields its rank is dim H - #classes and the center is
the orthogonal statement: the nullspace of z T_g - T_g z over all g.  The
nullspace solutions are 1 at their own free column and 0 at the others, so
they are the center's echelon basis as they stand.

Conjugacy classes of W_n are labelled by r-multipartitions; the stored
representative of a class is the block product w_beta attached to the
canonical colored semi-bipartition, with its fixed reduced word.  These
representatives have minimal length in their classes, and their images
T_{w_C} form a basis of the cocenter H/[H, H] at every parameter point; the
class polynomials f_{w,C} are the coordinates of T_w in it.  They are
computed by reduction modulo [H, H]: the remainders of the T_{w_C} fill the
#classes free columns of its echelon basis, that square system is factored
once, and the f row of w is the solve on the remainder of T_w, certified by
a membership check of the residual in [H, H].  Over Q the factorization is
solved once per unit right-hand side, and its inverse is kept as int
columns over one common denominator D: a remainder cleared to ints with
the lcm s of its denominators gives the f row as int sums of those
columns, one Fraction over D s per class, and the residual is checked as
an int vector, m times T_w - sum_C f_C T_{w_C} for a common multiple m.
Over the other fields the factorization's recorded row operations are
replayed on each remainder and the residual is a HeckeElement difference.
No characters and no semisimplicity are needed; the character matrix is
the acceptance gate's oracle.  The duals g_{w,C} = f_{w^{-1}, beta_hat(C)}
are read off the f row of w^{-1}.  The class polynomials do not depend on
which minimal-length representative is chosen exactly when T_w - T_{w_C}
lies in [H, H] for every minimal-length w of every class C;
``representative_dependence_report`` checks that by membership alone.

The center bases of Chavli-Pfeiffer type follow.  y_C = sum_w f_{w,C}
T_w^vee is the basis of the center dual, under tau, to the cocenter basis
{T_{w_C}}: tau(T_{w_D} y_C) = delta_{CD}.  Conversely a central z with those
pairings has tau(T_u z) = f_{u,C} for every u, because T_u - sum_D f_{u,D}
T_{w_D} lies in [H, H] and tau([a, b] z) = 0 for central z.  So y_C is
read off the center itself, by solving the #classes x #classes system of
pairings tau(T_{w_D} z_j) against the nullspace basis z_j, with no tau-dual
basis of H.  Each class's form tau(T_{w_D} .) is built once, as a vector on
the basis positions, by transposed left generator actions along the word of
w_D; a pairing is then a dot product with z_j.
z_C = sum_w g_{w,C} (T_{w^{-1}})^vee is y_{beta_hat(C)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .group import (
    GroupElement,
    bm_word,
    conjugacy_invariant,
    length,
    phi_inverse,
    w_alpha,
)
from .hecke import (
    HeckeElement,
    _bump,
    _lmul_gen_index,
    _rmul_gen_index,
    memo,
    t_element,
)
from .linalg import Elimination, SubspaceBasis, nullspace, span
from .rings import RATIONAL_KINDS
from .tableaux import enumerate_multipartitions


@dataclass(frozen=True)
class ClassInfo:
    label: tuple              # r-multipartition
    beta: object              # colored semi-bipartition
    rep: GroupElement         # w_beta, the canonical minimal representative
    word: tuple               # its fixed reduced word
    min_length: int


def class_data(params):
    """The conjugacy classes with canonical minimal representatives."""
    out = []
    for label in sorted(enumerate_multipartitions(params.r, params.n)):
        beta = phi_inverse(params, label)
        rep, word = w_alpha(params, beta)
        if conjugacy_invariant(rep) != label:
            raise AssertionError("w_beta landed in the wrong class")
        out.append(ClassInfo(label, beta, rep, word, length(rep)))
    return out


# -- subspaces ----------------------------------------------------------------

def _index_commutator(ctx, idx, token):
    vec = {}
    for idx2, coeff in _rmul_gen_index(ctx, idx, token):
        _bump(ctx, vec, idx2, coeff)
    for idx2, coeff in _lmul_gen_index(ctx, token, idx):
        _bump(ctx, vec, idx2, -coeff)
    return vec


def _commutator_tokens(params):
    """The generator tokens in the order their commutators enter an echelon:
    the sparse T_i commutators first, so that the T_0 ones reduce against
    them and back-substitution touches fewer stored rows."""
    return tuple(range(1, params.n)) + (0,)


def commutator_subspace(ctx):
    """Row-echelon basis of [H, H]."""
    return span(ctx.ring, [_index_commutator(ctx, idx, token)
                           for token in _commutator_tokens(ctx.params)
                           for idx in ctx.basis_indices()])


def center(ctx):
    """The center as a list of HeckeElements plus its echelon basis."""
    columns = ctx.basis_indices()
    dim = ctx.dimension
    rows = {}             # the transpose, one row per (token, position)
    for token in _commutator_tokens(ctx.params):
        for idx in columns:
            for idx2, coeff in _index_commutator(ctx, idx, token).items():
                rows.setdefault(token * dim + idx2, {})[idx] = coeff
    sols = nullspace(ctx.ring, list(rows.values()), columns)
    elements = [HeckeElement(ctx, vec) for vec in sols]
    basis = SubspaceBasis.from_echelon(
        ctx.ring, {next(iter(vec)): vec for vec in sols})
    return elements, basis


def symmetric_jm_subalgebra(ctx):
    """Echelon basis of the unital algebra generated by the elementary
    symmetric polynomials in the Jucys-Murphy elements."""
    from .hecke import elementary_symmetric_jm
    gens = [elementary_symmetric_jm(ctx, m) for m in range(1, ctx.params.n + 1)]
    basis = SubspaceBasis(ctx.ring)
    pending = []
    for elt in [ctx.one()] + gens:
        if basis.add(elt.terms):
            pending.append(elt)
    while pending:
        fresh = []
        for elt in pending:
            for g in gens:
                prod = elt * g
                if basis.add(prod.terms):
                    fresh.append(prod)
        pending = fresh
    return basis


def spans_equal(a, b):
    """Two SubspaceBasis objects describe the same subspace."""
    if a.rank != b.rank:
        return False
    return all(b.contains(v) for v in a.vectors()) and \
        all(a.contains(v) for v in b.vectors())


# -- class polynomials ----------------------------------------------------------

class ClassPolynomials:
    """f_{w,C} and g_{w,C} by reduction modulo [H, H], at every parameter
    point; ``character_matrix`` is kept as the gate's oracle."""

    def __init__(self, ctx, seminormal=None):
        self.ctx = ctx
        self.classes = class_data(ctx.params)
        self.snd = seminormal
        self._rep_elements = {
            info.label: t_element(ctx, info.rep) for info in self.classes
        }
        # beta_hat: for each class C, the canonical label whose representative
        # inverts into C, so that b_{w_C}^vee = T_{w_{beta_hat(C)}}
        self._beta_hat = {conjugacy_invariant(info.rep.inverse()): info.label
                          for info in self.classes}
        self._elim = None
        self._columns = None
        self._commutators = None

    @memo
    def character_matrix(self):
        """Rows: shapes; columns: class labels; entries chi_lambda(T_{w_C})."""
        if self.snd is None:
            from .seminormal import SeminormalData
            self.snd = SeminormalData(self.ctx)
        return [
            {
                info.label: self.snd.character(
                    shape, self._rep_elements[info.label])
                for info in self.classes
            }
            for shape in self.snd.shapes
        ]

    def commutator_basis(self):
        if self._commutators is None:
            self._commutators = commutator_subspace(self.ctx)
        return self._commutators

    def _elimination(self):
        """The remainders of the T_{w_C} modulo [H, H], factored once.  The
        cocenter theorem makes the system square and nonsingular, so more
        remainder columns than classes, or a singular system, can only come
        from a wrong [H, H]: ArithmeticError."""
        if self._elim is None:
            comm = self.commutator_basis()
            zero = self.ctx.ring.zero()
            reps = {label: comm.reduce(elt.terms)
                    for label, elt in self._rep_elements.items()}
            self._columns = list(dict.fromkeys(
                c for vec in reps.values() for c in vec))
            if len(self._columns) > len(reps):
                raise ArithmeticError(
                    f"{len(self._columns)} remainder columns modulo [H, H] "
                    f"for {len(reps)} classes")
            self._elim = Elimination(self.ctx.ring, [
                {label: vec.get(col, zero) for label, vec in reps.items()}
                for col in self._columns])
        return self._elim

    @cached_property
    def _integer_inverse(self):
        """Over Q, the inverse of the factored system as (D, {remainder
        column: its inverse column as ints over the classes}), D the common
        denominator: one solve per unit right-hand side."""
        elim = self._elimination()
        zero, one = self.ctx.ring.zero(), self.ctx.ring.one()
        size = len(self._columns)
        sols = [elim.solve([one if j == i else zero for j in range(size)])
                for i in range(size)]
        denom = lcm(*(v.denominator for sol in sols for v in sol.values()))
        return denom, {
            col: tuple(sol[info.label].numerator *
                       (denom // sol[info.label].denominator)
                       for info in self.classes)
            for col, sol in zip(self._columns, sols)}

    @cached_property
    def _integer_reps(self):
        """Over Q, (d, {label: int terms}) with T_{w_C} = terms / d."""
        denom = lcm(*(v.denominator for elt in self._rep_elements.values()
                      for v in elt.terms.values()))
        return denom, {
            label: {idx: v.numerator * (denom // v.denominator)
                    for idx, v in elt.terms.items()}
            for label, elt in self._rep_elements.items()}

    # -- f and g -------------------------------------------------------------

    def _coefficients(self, elt, check_residual):
        """The f row of elt.  Over Q the remainder rem is cleared to ints
        with the lcm s of its denominators, and the row is sum_col rem[col] *
        (inverse column of col) / (D s) in int arithmetic; elsewhere the
        recorded factorization is replayed on the remainder."""
        elim = self._elimination()
        rem = self.commutator_basis().reduce(elt.terms)
        if self.ctx.ring.kind in RATIONAL_KINDS:
            denom, inverse = self._integer_inverse
            scale = lcm(*(v.denominator for v in rem.values()))
            num = [0] * len(self.classes)
            for col, v in rem.items():
                column = inverse.get(col)
                if column is None:
                    raise ArithmeticError("remainder modulo [H, H] outside "
                                          "the representatives' columns")
                a = v.numerator * (scale // v.denominator)
                num = [x + a * y for x, y in zip(num, column)]
            denom *= scale
            coeffs = {info.label: Fraction(x, denom)
                      for info, x in zip(self.classes, num)}
        else:
            zero = self.ctx.ring.zero()
            rhs = [rem.pop(col, zero) for col in self._columns]
            if rem:
                raise ArithmeticError("remainder modulo [H, H] outside "
                                      "the representatives' columns")
            sol = elim.solve(rhs)
            coeffs = {info.label: sol[info.label] for info in self.classes}
        if check_residual and not self.residual_in_commutators(elt, coeffs):
            raise AssertionError("class-polynomial residual escaped [H, H]")
        return coeffs

    def residual_in_commutators(self, elt, coeffs):
        """elt - sum_C coeffs[C] T_{w_C} lies in [H, H].  Over Q the test
        is on m times the residual, an int vector for a common multiple m
        of every denominator, which lies in [H, H] exactly when the residual
        does."""
        comm = self.commutator_basis()
        if self.ctx.ring.kind not in RATIONAL_KINDS:
            residual = elt - _combination(
                self.ctx, ((self._rep_elements[info.label], coeffs[info.label])
                           for info in self.classes))
            return comm.contains(residual.terms)
        rep_denom, reps = self._integer_reps
        coeff_denom = lcm(*(coeffs[label].denominator for label in reps))
        mult = lcm(*(v.denominator for v in elt.terms.values()),
                   coeff_denom * rep_denom)
        vec = {idx: v.numerator * (mult // v.denominator)
               for idx, v in elt.terms.items()}
        scale = mult // (coeff_denom * rep_denom)
        for label, terms in reps.items():
            c = coeffs[label]
            num = c.numerator * (coeff_denom // c.denominator) * scale
            if num:
                for idx, v in terms.items():
                    vec[idx] = vec.get(idx, 0) - num * v
        return comm.contains(vec)

    def f_polys(self, w, check_residual=True):
        """Coefficients f with T_w = sum_C f_{w,C} T_{w_C} modulo [H, H]."""
        return self._coefficients(t_element(self.ctx, w), check_residual)

    def g_polys(self, w, check_residual=True):
        """Coefficients with (T_{w^{-1}})^vee = sum_C g_{w,C} b_{w_C}^vee
        modulo [H, H], where b_{w_C}^vee = T_{w_{beta_hat(C)}}.  Expanding
        T_{w^{-1}} over the targets T_{w_{beta_hat(C)}} is the f row of
        w^{-1} relabelled, so g_{w,C} = f_{w^{-1}, beta_hat(C)}, and its
        residual is that of the f row."""
        return self.g_from_f(self.f_polys(w.inverse(), check_residual))

    def g_from_f(self, f):
        """The g row of w read off the f row ``f`` of w^{-1}."""
        return {info.label: f[self._beta_hat[info.label]]
                for info in self.classes}

    def cp_representative(self, label):
        """The Chavli-Pfeiffer representative w_C = w_{beta_hat(C)}^{-1}."""
        beta_label = self._beta_hat[label]
        info = next(i for i in self.classes if i.label == beta_label)
        return info.rep.inverse()


# -- the center bases of Chavli-Pfeiffer type ------------------------------------

def center_bases_yz(ctx, polys):
    """(y_C, z_C) families indexed by class labels: y_C is the central
    element with tau(T_{w_D} y_C) = delta_{CD}, and z_C = y_{beta_hat(C)}.
    A singular pairing contradicts the cocenter theorem: ArithmeticError."""
    elements, _ = center(ctx)
    zero, one = ctx.ring.zero(), ctx.ring.one()
    pairing = []          # row D: tau(T_{w_D} z_j)
    for info in polys.classes:
        form = _tau_form(ctx, bm_word(info.rep))
        pairing.append({j: sum((form[idx] * v for idx, v in z.terms.items()
                                if idx in form), zero)
                         for j, z in enumerate(elements)})
    elim = Elimination(ctx.ring, pairing)
    ys = {}
    for info in polys.classes:
        sol = elim.solve([one if c is info else zero for c in polys.classes])
        ys[info.label] = _combination(
            ctx, ((z, sol[j]) for j, z in enumerate(elements)))
    zs = {label: ys[polys._beta_hat[label]] for label in ys}
    return ys, zs


def _tau_form(ctx, word):
    """The form u -> tau(T_{s_1} .. T_{s_k} u) for word = (s_1, .., s_k), as
    {basis position: value}, built by transposed left generator actions:
    after s_i, the form takes L^c T_w to the old form's value on
    T_{s_i} L^c T_w."""
    ring = ctx.ring
    indices = ctx.basis_indices()
    form = {ctx.identity_index(): ring.one()}
    for tok in word:
        new = {}
        for idx in indices:
            value = ring.zero()
            for idx2, coeff in _lmul_gen_index(ctx, tok, idx):
                old = form.get(idx2)
                if old is not None:
                    value = value + coeff * old
            if not ring.is_zero(value):
                new[idx] = value
        form = new
    return form


def _combination(ctx, pairs):
    """sum c * elt over (elt, c) pairs, accumulated in one terms dict."""
    terms = {}
    for elt, c in pairs:
        if not ctx.ring.is_zero(c):
            for idx, v in elt.terms.items():
                _bump(ctx, terms, idx, v * c)
    return HeckeElement(ctx, terms)


def is_central(ctx, elt):
    """elt commutes with every generator, compared through the generator
    actions rather than full products."""
    return all(elt.rmul_gen(t) == elt.lmul_gen(t) for t in range(ctx.params.n))


# -- the center conjecture checker ----------------------------------------------

def context_for_weight(r, n, e, kappa):
    """A field context with xi of quantum characteristic e and Q_l = xi^kappa_l."""
    from .hecke import AlgebraContext
    from .rings import Cyc, RingSpec
    from fractions import Fraction
    if e == 1:
        raise ValueError("xi = 1 is excluded: the center can exceed the "
                         "symmetric Jucys-Murphy polynomials there")
    if len(kappa) != r:
        raise ValueError("need one kappa per cyclotomic parameter")
    if e == 2:
        ring = RingSpec.rational()
        xi = Fraction(-1)
        qs = [xi ** (k % 2) for k in kappa]
    else:
        ring = RingSpec.cyclotomic(e)
        xi = Cyc.zeta(e)
        qs = [xi ** (k % e) for k in kappa]
    return AlgebraContext((r, n), ring, xi, qs)


def center_conjecture_report(r, n, e, kappa):
    """Instance check: symmetric-JM span versus center."""
    ctx = context_for_weight(r, n, e, kappa)
    _, zbasis = center(ctx)
    sym = symmetric_jm_subalgebra(ctx)
    expected = len(enumerate_multipartitions(r, n))
    return {
        "r": r,
        "n": n,
        "e": e,
        "kappa": list(kappa),
        "dim_center": zbasis.rank,
        "dim_symmetric_jm": sym.rank,
        "classes": expected,
        "center_equals_symmetric_jm": spans_equal(zbasis, sym),
        "center_rank_matches_classes": zbasis.rank == expected,
    }


def representative_dependence_report(ctx, commutators, budget=50_000):
    """Check that the class polynomials do not depend on the choice of
    minimal-length representative: every minimal-length w of a class C
    must have T_w - T_{w_C} in [H, H], whose echelon basis is
    ``commutators``.  Uses no characters, so it runs at every parameter
    point; an element that fails is reported with its class."""
    from .group import enumerate_classes
    canon = {info.label: info for info in class_data(ctx.params)}
    replaced = 0
    diffs = []
    for cls in enumerate_classes(ctx.params, budget):
        info = canon[conjugacy_invariant(cls[0])]
        others = [w for w in cls
                  if length(w) == info.min_length and w != info.rep]
        replaced += bool(others)
        rep = t_element(ctx, info.rep)
        for w in others:
            if not commutators.contains((t_element(ctx, w) - rep).terms):
                diffs.append({"w": w.to_json(),
                              "class": [list(c) for c in info.label]})
    return {
        "classes_with_alternative_minimal_rep": replaced,
        "differences": diffs,
        "agrees_everywhere": not diffs,
    }
