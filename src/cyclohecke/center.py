r"""
Center, cocenter and class polynomials of the cyclotomic Hecke algebra.

The commutator subspace [H, H] is spanned by the commutators of basis
elements with the generators: the identity [a, xy] = [ax, y] + [ya, x]
reduces arbitrary commutators to generator commutators.  Over any of the
supported coefficient fields its rank is dim H - #classes and the center is
the orthogonal statement: the nullspace of z T_g - T_g z over all g.

Conjugacy classes of W_n are labelled by r-multipartitions; the stored
representative of a class is the block product w_beta attached to the
canonical colored semi-bipartition, with its fixed reduced word.  These
representatives have minimal length in their classes, and their images
T_{w_C} form a basis of the cocenter H/[H, H] at every parameter point; the
class polynomials f_{w,C} are the coordinates of T_w in it.  They are
computed by reduction modulo [H, H]: the remainders of the T_{w_C} fill the
#classes free columns of its echelon basis, that square system is factored
once (its row operations are recorded and replayed on each right-hand side),
and the f row of w is the solve on the remainder of T_w, certified by a
membership check of the residual in [H, H].  No characters and no
semisimplicity are needed; the character matrix is the acceptance gate's
oracle.  The duals g_{w,C} = f_{w^{-1}, beta_hat(C)} are read off the f row
of w^{-1}.  The class polynomials do not depend on which minimal-length
representative is chosen exactly when T_w - T_{w_C} lies in [H, H] for
every minimal-length w of every class C;
``representative_dependence_report`` checks that by membership alone.

The center bases of Chavli-Pfeiffer type follow.  y_C = sum_w f_{w,C}
T_w^vee is the basis of the center dual, under tau, to the cocenter basis
{T_{w_C}}: tau(T_{w_D} y_C) = delta_{CD}.  Conversely a central z with those
pairings has tau(T_u z) = f_{u,C} for every u, because T_u - sum_D f_{u,D}
T_{w_D} lies in [H, H] and tau([a, b] z) = 0 for central z.  So y_C is
read off the center itself, by solving the #classes x #classes system of
pairings tau(T_{w_D} z_j) against the nullspace basis z_j, with no tau-dual
basis of H.  z_C = sum_w g_{w,C} (T_{w^{-1}})^vee is y_{beta_hat(C)}.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _terms_lmul,
    t_element,
)
from .linalg import Elimination, SubspaceBasis, nullspace
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
    basis = SubspaceBasis(ctx.ring)
    for token in _commutator_tokens(ctx.params):
        for idx in ctx.basis_indices():
            basis.add(_index_commutator(ctx, idx, token))
    return basis


def center(ctx):
    """The center as a list of HeckeElements plus its echelon basis."""
    columns = list(ctx.basis_indices())
    rows = {}
    for token in _commutator_tokens(ctx.params):
        for idx in columns:
            for idx2, coeff in _index_commutator(ctx, idx, token).items():
                rows.setdefault((token, idx2), {})[idx] = coeff
    sols = nullspace(ctx.ring, list(rows.values()), columns)
    elements = [HeckeElement(ctx, vec) for vec in sols]
    basis = SubspaceBasis(ctx.ring)
    for vec in sols:
        basis.add(vec)
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
        self._matrix_rows = None
        self._elim = None
        self._columns = None
        self._commutators = None

    def character_matrix(self):
        """Rows: shapes; columns: class labels; entries chi_lambda(T_{w_C})."""
        if self._matrix_rows is None:
            if self.snd is None:
                from .seminormal import SeminormalData
                self.snd = SeminormalData(self.ctx)
            self._matrix_rows = [
                {
                    info.label: self.snd.character(
                        shape, self._rep_elements[info.label])
                    for info in self.classes
                }
                for shape in self.snd.shapes
            ]
        return self._matrix_rows

    def commutator_basis(self):
        if self._commutators is None:
            self._commutators = commutator_subspace(self.ctx)
        return self._commutators

    def _elimination(self):
        """The remainders of the T_{w_C} modulo [H, H], factored once; a
        singular system contradicts the cocenter theorem: ArithmeticError."""
        if self._elim is None:
            comm = self.commutator_basis()
            zero = self.ctx.ring.zero()
            reps = {label: comm.reduce(elt.terms)
                    for label, elt in self._rep_elements.items()}
            self._columns = list(dict.fromkeys(
                c for vec in reps.values() for c in vec))
            self._elim = Elimination(self.ctx.ring, [
                {label: vec.get(col, zero) for label, vec in reps.items()}
                for col in self._columns])
        return self._elim

    # -- f and g -------------------------------------------------------------

    def _coefficients(self, elt, check_residual):
        elim = self._elimination()
        rem = self.commutator_basis().reduce(elt.terms)
        zero = self.ctx.ring.zero()
        rhs = [rem.pop(col, zero) for col in self._columns]
        if rem:
            raise ArithmeticError(
                "remainder modulo [H, H] outside the representatives' columns")
        sol = elim.solve(rhs)
        coeffs = {info.label: sol[info.label] for info in self.classes}
        if check_residual and not self.residual_in_commutators(elt, coeffs):
            raise AssertionError("class-polynomial residual escaped [H, H]")
        return coeffs

    def residual_in_commutators(self, elt, coeffs):
        """elt - sum_C coeffs[C] T_{w_C} lies in [H, H]."""
        residual = elt - _combination(
            self.ctx, ((self._rep_elements[info.label], coeffs[info.label])
                       for info in self.classes))
        return self.commutator_basis().contains(residual.terms)

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
    ident, zero, one = ctx.identity_index(), ctx.ring.zero(), ctx.ring.one()
    pairing = []          # row D: tau(T_{w_D} z_j), by left generator actions
    for info in polys.classes:
        word = bm_word(info.rep)
        row = {}
        for j, z in enumerate(elements):
            terms = z.terms
            for tok in reversed(word):
                terms = _terms_lmul(ctx, tok, terms)
            row[j] = terms.get(ident, zero)
        pairing.append(row)
    elim = Elimination(ctx.ring, pairing)
    ys = {}
    for info in polys.classes:
        sol = elim.solve([one if c is info else zero for c in polys.classes])
        ys[info.label] = _combination(
            ctx, ((z, sol[j]) for j, z in enumerate(elements)))
    zs = {label: ys[polys._beta_hat[label]] for label in ys}
    return ys, zs


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
