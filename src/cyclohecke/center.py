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
T_{w_C} span the cocenter; the class polynomials f_{w,C} express any T_w in
terms of them modulo [H, H].  They are computed by the character-matrix
method: chi_lambda(T_w) = sum_C f_{w,C} chi_lambda(T_{w_C}) with the square
character matrix factored once per context (its Gauss-Jordan row operations
are recorded and replayed on each right-hand side), and every result is
certified by a membership check of the residual in [H, H].

The dual-basis constructions follow: T_w^vee is the tau-dual basis of
{T_w}, y_C = sum_w f_{w,C} T_w^vee and z_C = sum_w g_{w,C} b_w with
b_w = (T_{w^{-1}})^vee; both families are bases of the center.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import (
    GroupElement,
    conjugacy_invariant,
    enumerate_group,
    length,
    phi_inverse,
    w_alpha,
)
from .hecke import HeckeElement, _bump, t_element
from .linalg import Elimination, SubspaceBasis, invert_matrix, nullspace
from .seminormal import SeminormalData
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
    from .hecke import _lmul_gen_index, _rmul_gen_index
    vec = {}
    for idx2, coeff in _rmul_gen_index(ctx, idx, token):
        cur = vec.get(idx2, ctx.ring.zero())
        vec[idx2] = cur + coeff
    for idx2, coeff in _lmul_gen_index(ctx, token, idx):
        cur = vec.get(idx2, ctx.ring.zero())
        vec[idx2] = cur - coeff
    return {i: c for i, c in vec.items() if not ctx.ring.is_zero(c)}


def commutator_subspace(ctx):
    """Row-echelon basis of [H, H]."""
    basis = SubspaceBasis(ctx.ring)
    for token in range(ctx.params.n):
        for idx in ctx.basis_indices():
            basis.add(_index_commutator(ctx, idx, token))
    return basis


def center(ctx):
    """The center as a list of HeckeElements plus its echelon basis."""
    columns = list(ctx.basis_indices())
    rows = {}
    for token in range(ctx.params.n):
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
    """Character-matrix solver for f_{w,C} and g_{w,C}."""

    def __init__(self, ctx, classes=None, seminormal=None):
        self.ctx = ctx
        self.classes = classes if classes is not None else class_data(ctx.params)
        self.snd = seminormal if seminormal is not None else SeminormalData(ctx)
        self.shapes = self.snd.shapes
        if len(self.shapes) != len(self.classes):
            raise AssertionError("shape and class counts disagree")
        self._rep_elements = {
            info.label: t_element(ctx, info.rep) for info in self.classes
        }
        # beta_hat: for each class C, the canonical label whose representative
        # inverts into C, so that b_{w_C}^vee = T_{w_{beta_hat(C)}}
        self._beta_hat = {}
        for info in self.classes:
            self._beta_hat[conjugacy_invariant(info.rep.inverse())] = info.label
        # the elements the f ("rep") and g ("hat") rows are expanded over
        self._targets = {
            "rep": self._rep_elements,
            "hat": {info.label: self._rep_elements[self._beta_hat[info.label]]
                    for info in self.classes},
        }
        self._matrix_rows = None
        self._eliminations = {}
        self._commutators = None

    # -- characters ---------------------------------------------------------

    def character_matrix(self):
        """Rows: shapes; columns: class labels; entries chi_lambda(T_{w_C})."""
        if self._matrix_rows is None:
            self._matrix_rows = [
                {
                    info.label: self.snd.character(
                        shape, self._rep_elements[info.label])
                    for info in self.classes
                }
                for shape in self.shapes
            ]
        return self._matrix_rows

    def _elimination(self, kind):
        """The character matrix over the "rep" or "hat" targets, factored
        once; a singular matrix would contradict the cocenter basis theorem
        and raises ArithmeticError."""
        elim = self._eliminations.get(kind)
        if elim is None:
            rows = self.character_matrix()
            if kind == "hat":
                rows = [{info.label: row[self._beta_hat[info.label]]
                         for info in self.classes} for row in rows]
            elim = Elimination(self.ctx.ring, rows)
            self._eliminations[kind] = elim
        return elim

    def commutator_basis(self):
        if self._commutators is None:
            self._commutators = commutator_subspace(self.ctx)
        return self._commutators

    # -- f and g -------------------------------------------------------------

    def _coefficients(self, kind, elt, check_residual):
        ring = self.ctx.ring
        rhs = [self.snd.character(shape, elt) for shape in self.shapes]
        sol = self._elimination(kind).solve(rhs)
        coeffs = {info.label: sol.get(info.label, ring.zero())
                  for info in self.classes}
        if check_residual and not self.residual_in_commutators(kind, elt, coeffs):
            raise AssertionError(("class-polynomial" if kind == "rep" else
                                  "dual class-polynomial")
                                 + " residual escaped [H, H]")
        return coeffs

    def residual_in_commutators(self, kind, elt, coeffs):
        """elt - sum_C coeffs[C] T lies in [H, H], T running over the "rep"
        (f rows) or "hat" (g rows) targets."""
        targets = self._targets[kind]
        residual = elt - _combination(
            self.ctx, ((targets[info.label], coeffs[info.label])
                       for info in self.classes))
        return self.commutator_basis().contains(residual.terms)

    def f_for_element(self, elt, check_residual=True):
        """Coefficients f with elt = sum_C f_C T_{w_C} modulo [H, H]."""
        return self._coefficients("rep", elt, check_residual)

    def f_polys(self, w, check_residual=True):
        return self.f_for_element(t_element(self.ctx, w), check_residual)

    def g_polys(self, w, check_residual=True):
        """Coefficients with (T_{w^{-1}})^vee = sum_C g_{w,C} b_{w_C}^vee
        modulo [H, H], where b_{w_C}^vee = T_{w_{beta_C}} for the class
        containing w_{beta_C}^{-1}."""
        return self._coefficients("hat", t_element(self.ctx, w.inverse()),
                                  check_residual)

    def cp_representative(self, label):
        """The Chavli-Pfeiffer representative w_C = w_{beta_hat(C)}^{-1}."""
        beta_label = self._beta_hat[label]
        info = next(i for i in self.classes if i.label == beta_label)
        return info.rep.inverse()


# -- dual bases and the center bases of Chavli-Pfeiffer type --------------------

class DualBasis:
    """tau-dual family of the fixed-word basis {T_w | w in W_n}."""

    def __init__(self, ctx, budget=50_000):
        self.ctx = ctx
        self.order = sorted(enumerate_group(ctx.params, budget),
                            key=lambda w: (length(w), w.colors, w.perm))
        self.t_elts = [t_element(ctx, w) for w in self.order]
        gram = [
            [(a * b).tau() for b in self.t_elts]
            for a in self.t_elts
        ]
        inv = invert_matrix(ctx.ring, gram)   # raises when tau degenerates
        self.duals = [_combination(ctx, zip(self.t_elts, col))
                      for col in zip(*inv)]
        self._pos = {w: i for i, w in enumerate(self.order)}

    def dual(self, w):
        return self.duals[self._pos[w]]

    def t(self, w):
        return self.t_elts[self._pos[w]]


def center_bases_yz(ctx, polys, dual):
    """(y_C, z_C) families indexed by class labels."""
    ys, zs = {}, {}
    fs = {w: polys.f_polys(w, check_residual=False) for w in dual.order}
    gs = {w: polys.g_polys(w, check_residual=False) for w in dual.order}
    for info in polys.classes:
        ys[info.label] = _combination(
            ctx, ((dual.dual(w), fs[w][info.label]) for w in dual.order))
        zs[info.label] = _combination(
            ctx, ((dual.dual(w.inverse()), gs[w][info.label]) for w in dual.order))
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
    for token in range(ctx.params.n):
        g = ctx.generator(token)
        if not (elt * g - g * elt).is_zero():
            return False
    return True


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


def alternative_representatives(params, budget=50_000):
    """For each class, a minimal-length element different from w_beta when
    one exists (None otherwise); an experiment hook, not an invariant."""
    from .group import enumerate_classes
    classes = enumerate_classes(params, budget)
    canon = {info.label: info for info in class_data(params)}
    out = {}
    for cls in classes:
        label = conjugacy_invariant(cls[0])
        info = canon[label]
        minimal = [w for w in cls if length(w) == info.min_length]
        alt = next((w for w in minimal if w != info.rep), None)
        out[label] = alt
    return out


def representative_dependence_report(ctx, polys, budget=50_000):
    """Recompute f_{w,C} against alternative minimal representatives and
    report the differences as data."""
    ctx_params = ctx.params
    alts = alternative_representatives(ctx_params, budget)
    alt_elements = {}
    for info in polys.classes:
        alt = alts.get(info.label)
        alt_elements[info.label] = t_element(ctx, alt) if alt is not None \
            else polys._rep_elements[info.label]
    elim = Elimination(ctx.ring, [
        {info.label: polys.snd.character(shape, alt_elements[info.label])
         for info in polys.classes}
        for shape in polys.shapes
    ])
    diffs = []
    order = sorted(enumerate_group(ctx_params, budget),
                   key=lambda w: (length(w), w.colors, w.perm))
    for w in order:
        elt = t_element(ctx, w)
        rhs = [polys.snd.character(shape, elt) for shape in polys.shapes]
        sol = elim.solve(rhs)
        base = polys.f_polys(w, check_residual=False)
        for info in polys.classes:
            a = base[info.label]
            b = sol.get(info.label, ctx.ring.zero())
            if not ctx.ring.is_zero(a - b):
                diffs.append({
                    "w": w.to_json(),
                    "class": [list(c) for c in info.label],
                    "canonical": ctx.ring.format(a),
                    "alternative": ctx.ring.format(b),
                })
    replaced = [list(label) for label, alt in alts.items() if alt is not None]
    return {
        "classes_with_alternative_minimal_rep": len(replaced),
        "differences": diffs,
        "agrees_everywhere": not diffs,
    }
