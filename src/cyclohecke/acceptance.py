r"""
The acceptance battery: exhaustive desk-scale verification of the group
layer, the Hecke relations, seminormal structure, center/cocenter
dimensions, class polynomials, center-conjecture instances and KLR blocks.

Each criterion returns a list of named checks; the CLI ``selftest``
subcommand and the pytest acceptance module both run these.  ``quick``
trims the parameter list to (r, n) <= (2, 3); ``full`` runs everything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .group import (
    GroupParams,
    bm_normal_form,
    conjugacy_invariant,
    enumerate_classes,
    enumerate_group,
    eval_word,
    is_alpha_form,
    length,
    phi_bijection_full,
)
from .hecke import AlgebraContext, t_element
from .rings import RingSpec
from .tableaux import enumerate_multipartitions


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def as_json(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _spec_ctx(r, n, xi=Fraction(2), qs=None):
    if qs is None:
        qs = [Fraction(100) ** (l - 1) for l in range(1, r + 1)]
    ring = RingSpec.specialized(xi, qs)
    return AlgebraContext(GroupParams(r, n), ring,
                          ring.xi(), [ring.q(l) for l in range(1, r + 1)])


def _laurent_ctx(r, n):
    ring = RingSpec.laurent(r)
    return AlgebraContext(GroupParams(r, n), ring,
                          ring.xi(), [ring.q(l) for l in range(1, r + 1)])


def _fraction_ctx(r, n):
    ring = RingSpec.fraction(r)
    return AlgebraContext(GroupParams(r, n), ring,
                          ring.xi(), [ring.q(l) for l in range(1, r + 1)])


# -- criterion 1: group layer exactness ----------------------------------------

def criterion_group_exactness(level="full"):
    sizes = [(2, 2), (3, 2), (2, 3)]
    if level == "full":
        sizes += [(3, 3), (2, 4), (4, 3), (3, 4), (2, 5)]
    checks = []
    for r, n in sizes:
        params = GroupParams(r, n)
        dist = enumerate_group(params)
        ok_count = len(dist) == params.order
        ok_len = all(length(w) == d for w, d in dist.items())
        checks.append(Check(f"({r},{n}) element count = r^n n!", ok_count,
                            f"{len(dist)} vs {params.order}"))
        checks.append(Check(f"({r},{n}) BM length = BFS distance, all elements",
                            ok_len))
        ok_bm = all(eval_word(params, bm_normal_form(w).word) == w for w in dist)
        checks.append(Check(f"({r},{n}) BM words reconstruct", ok_bm))
        classes = enumerate_classes(params)
        expected = len(enumerate_multipartitions(r, n))
        checks.append(Check(f"({r},{n}) class count = #multipartitions",
                            len(classes) == expected,
                            f"{len(classes)} vs {expected}"))
        ok_beta = True
        detail = ""
        for cls in classes:
            minimal = min(length(w) for w in cls)
            betas = [w for w in cls
                     if (a := is_alpha_form(w)) is not None and a.is_bipartition()]
            if len(betas) != 1 or length(betas[0]) != minimal:
                ok_beta = False
                detail = f"class {conjugacy_invariant(cls[0])}"
                break
            beta = is_alpha_form(betas[0])
            if phi_bijection_full(params, beta) != conjugacy_invariant(betas[0]):
                ok_beta = False
                detail = "phi mismatch"
                break
        checks.append(Check(
            f"({r},{n}) unique minimal w_beta per class, phi-compatible",
            ok_beta, detail))
    return checks


# -- criterion 2: reduction certificates ----------------------------------------

def criterion_reduction(level="full"):
    from .reduction import reduce_to_minimal, verify_certificate
    sizes = [(2, 3), (3, 2)]
    if level == "full":
        sizes += [(3, 3), (2, 4), (1, 6)]
    checks = []
    for r, n in sizes:
        params = GroupParams(r, n)
        classes = enumerate_classes(params)
        all_ok = True
        detail = ""
        steps = 0
        for cls in classes:
            minimal = min(length(w) for w in cls)
            for w in cls:
                cert = reduce_to_minimal(w, canonical=True)
                ok, why = verify_certificate(cert)
                if not ok:
                    all_ok, detail = False, why
                    break
                if cert.terminal_length != minimal:
                    all_ok = False
                    detail = f"terminal length {cert.terminal_length} vs {minimal}"
                    break
                steps += len(cert.steps)
            if not all_ok:
                break
        checks.append(Check(
            f"({r},{n}) certified reduction of every element", all_ok,
            detail or f"{steps} admissible steps"))
    return checks


# -- criterion 3: Hecke relations and dimension ----------------------------------

def _relation_checks(ctx, tag, rng, trials):
    checks = []
    n = ctx.params.n
    T = [ctx.generator(i) for i in range(n)]
    one = ctx.one()
    prod = one
    for q in ctx.qs:
        prod = prod * (T[0] - one.scale(q))
    checks.append(Check(f"{tag} cyclotomic relation", prod.is_zero()))
    ok = all(((T[i] - one.scale(ctx.xi)) * (T[i] + one)).is_zero()
             for i in range(1, n))
    checks.append(Check(f"{tag} quadratic relations", ok))
    ok = True
    if n >= 2:
        ok = T[0] * T[1] * T[0] * T[1] == T[1] * T[0] * T[1] * T[0]
    for i in range(1, n - 1):
        ok = ok and T[i] * T[i + 1] * T[i] == T[i + 1] * T[i] * T[i + 1]
    for i in range(n):
        for j in range(i + 2, n):
            ok = ok and T[i] * T[j] == T[j] * T[i]
    checks.append(Check(f"{tag} braid and commutation relations", ok))
    jms = ctx.jm_all()
    ok = all((jms[a] * jms[b] == jms[b] * jms[a])
             for a in range(n) for b in range(a + 1, n))
    checks.append(Check(f"{tag} Jucys-Murphy elements commute", ok))
    idxs = list(ctx.basis_indices())
    closure_ok = True
    assoc_ok = True
    for _ in range(trials):
        a = ctx.from_index(rng.choice(idxs))
        b = ctx.from_index(rng.choice(idxs))
        c = ctx.from_index(rng.choice(idxs))
        ab = a * b
        closure_ok = closure_ok and all(
            all(0 <= x < ctx.params.r for x in cc) for cc, _ in ab.terms)
        assoc_ok = assoc_ok and (ab * c == a * (b * c))
        if not (closure_ok and assoc_ok):
            break
    checks.append(Check(f"{tag} straightening closure on random products",
                        closure_ok))
    checks.append(Check(f"{tag} associativity on {trials} random triples",
                        assoc_ok))
    return checks


def criterion_hecke_relations(level="full", seed=0, trials=100):
    rng = random.Random(seed)
    checks = []
    for r, n in [(2, 2), (3, 2), (2, 3)]:
        checks += _relation_checks(_laurent_ctx(r, n), f"({r},{n}) symbolic",
                                   rng, trials if level == "full" else 25)
    if level == "full":
        checks += _relation_checks(_spec_ctx(2, 4), "(2,4) specialized",
                                   rng, trials)
    return checks


# -- criterion 4: seminormal suite ------------------------------------------------

def criterion_seminormal(level="full"):
    from .center import ClassPolynomials
    from .linalg import Elimination
    from .seminormal import SeminormalData
    checks = []
    for r, n in [(2, 2), (1, 3)]:
        ctx = _spec_ctx(r, n)
        snd = SeminormalData(ctx)
        checks.append(Check(f"({r},{n}) resolution of identity sum F_t = 1",
                            snd.resolution_of_identity() == ctx.one()))
        all_t = [t for shape in snd.shapes for t in snd.std[shape]]
        ok = all((snd.F(t) * snd.F(t) == snd.F(t)) for t in all_t)
        ok = ok and all((snd.F(s) * snd.F(t)).is_zero()
                        for i, s in enumerate(all_t) for t in all_t[i + 1:])
        checks.append(Check(f"({r},{n}) F_t orthogonal idempotents", ok))
        ok = True
        for shape in snd.shapes:
            stds = snd.std[shape]
            for s in stds:
                for t in stds:
                    for u in stds:
                        for v in stds:
                            lhs = snd.f(s, t) * snd.f(u, v)
                            if t.rows == u.rows:
                                ok = ok and lhs == snd.f(s, v).scale(snd.gamma(t))
                            else:
                                ok = ok and lhs.is_zero()
        checks.append(Check(
            f"({r},{n}) f_st f_uv = delta_tu gamma_t f_sv exhaustively", ok))
        ok = True
        for shape in snd.shapes:
            s_lam = snd.schur(shape)
            for s in snd.std[shape]:
                for t in snd.std[shape]:
                    val = snd.f(s, t).tau()
                    want = ctx.ring.div(snd.gamma(t), s_lam) \
                        if s.rows == t.rows else ctx.ring.zero()
                    ok = ok and val == want
        checks.append(Check(f"({r},{n}) tau(f_st) = delta_st gamma_t / s_lambda",
                            ok))
        ok = all(snd.central_idempotent_via_symmetric(shape)
                 == snd.F_lambda(shape) for shape in snd.shapes)
        checks.append(Check(
            f"({r},{n}) F_lambda realized as symmetric JM polynomial", ok))
        try:
            Elimination(ctx.ring,
                        ClassPolynomials(ctx, seminormal=snd).character_matrix())
            ok = True
        except ArithmeticError:
            ok = False
        checks.append(Check(f"({r},{n}) character matrix invertible", ok))
    return checks


# -- criterion 5: center and cocenter dimensions -----------------------------------

def criterion_center_dims(level="full"):
    from .center import (center, commutator_subspace,
                         representative_dependence_report)
    cases = [
        ("semisimple", 1, 3, Fraction(2), [Fraction(1)]),
        ("semisimple", 2, 2, Fraction(2), [Fraction(1), Fraction(100)]),
        ("non-semisimple", 1, 3, Fraction(-1), [Fraction(1)]),
        ("non-semisimple", 2, 2, Fraction(-1), [Fraction(1), Fraction(-1)]),
    ]
    if level == "full":
        cases += [
            ("semisimple", 1, 4, Fraction(2), [Fraction(1)]),
            ("semisimple", 2, 3, Fraction(2), [Fraction(1), Fraction(100)]),
            ("non-semisimple", 1, 4, Fraction(-1), [Fraction(1)]),
            ("non-semisimple", 2, 3, Fraction(-1), [Fraction(1), Fraction(-1)]),
            ("semisimple", 2, 4, Fraction(2), [Fraction(1), Fraction(100)]),
            ("non-semisimple", 2, 4, Fraction(-1), [Fraction(1), Fraction(-1)]),
            ("semisimple", 3, 3, Fraction(2),
             [Fraction(1), Fraction(100), Fraction(10000)]),
            ("non-semisimple", 3, 3, Fraction(-1),
             [Fraction(1), Fraction(-1), Fraction(1)]),
        ]
    checks = []
    for tag, r, n, xi, qs in cases:
        ctx = _spec_ctx(r, n, xi, qs)
        expected = len(enumerate_multipartitions(r, n))
        comm = commutator_subspace(ctx)
        _, zbasis = center(ctx)
        checks.append(Check(
            f"({r},{n}) {tag} xi={xi}: dim Z = #classes",
            zbasis.rank == expected, f"{zbasis.rank} vs {expected}"))
        checks.append(Check(
            f"({r},{n}) {tag} xi={xi}: rank [H,H] = dim - #classes",
            comm.rank == ctx.dimension - expected,
            f"{comm.rank} vs {ctx.dimension - expected}"))
        reps = representative_dependence_report(ctx, comm)
        checks.append(Check(
            f"({r},{n}) {tag} xi={xi}: minimal-length elements congruent "
            f"to w_C modulo [H,H]", reps["agrees_everywhere"],
            f"outside [H,H]: {len(reps['differences'])}; classes with "
            f"another minimal element: "
            f"{reps['classes_with_alternative_minimal_rep']}"))
    return checks


# -- criterion 6: class polynomials --------------------------------------------------

def criterion_class_polynomials(level="full"):
    from .center import ClassPolynomials
    checks = []
    for tag, r, n, xi, qs in [
            ("(2,2)", 2, 2, 2, (1, 100)), ("(1,3)", 1, 3, 2, (1,)),
            ("(2,2) non-semisimple xi=-1 Q=(1,-1)", 2, 2, -1, (1, -1))]:
        ctx = _spec_ctx(r, n, Fraction(xi), [Fraction(q) for q in qs])
        polys = ClassPolynomials(ctx)
        fs = {w: polys.f_polys(w, check_residual=False)
              for w in enumerate_group(ctx.params)}
        one, zero = ctx.ring.one(), ctx.ring.zero()
        ok = all(fs[info.rep][c.label] == (one if c is info else zero)
                 for info in polys.classes for c in polys.classes)
        checks.append(Check(f"{tag} f on representatives is a delta", ok))
        ok = all(polys.residual_in_commutators(t_element(ctx, w), f)
                 for w, f in fs.items())
        checks.append(Check(
            f"{tag} residual T_w - sum f T_wC lies in [H,H], all w", ok))
        if r == 1 and n == 3:
            checks.append(_central_bases_check(
                ctx, polys, f"{tag} y_C and z_C central bases of the center"))
    if level == "full":
        for tag, r, n, xi, qs in [
                ("(2,3)", 2, 3, 2, (1, 100)),
                ("(2,3) non-semisimple xi=-1 Q=(1,-1)", 2, 3, -1, (1, -1)),
                ("(2,4)", 2, 4, 2, (1, 100)),
                ("(2,4) non-semisimple xi=-1 Q=(1,-1)", 2, 4, -1, (1, -1)),
                ("(3,3)", 3, 3, 2, (1, 100, 10000))]:
            ctx = _spec_ctx(r, n, Fraction(xi), [Fraction(q) for q in qs])
            checks.append(_central_bases_check(
                ctx, ClassPolynomials(ctx),
                f"{tag} y_C and z_C central bases of the center"))
    # symbolic integrality, and the observed absence of negative exponents
    sym_sizes = [(2, 2)] if level != "full" else \
        [(2, 2), (3, 2), (2, 3), (1, 4), (3, 3)]
    for r, n in sym_sizes:
        ctx = _fraction_ctx(r, n)
        polys = ClassPolynomials(ctx)
        fs = {w: polys.f_polys(w, check_residual=False)
              for w in enumerate_group(ctx.params)}
        rows = list(fs.values()) + [polys.g_from_f(fs[w.inverse()]) for w in fs]
        try:
            values = [val.as_laurent() for row in rows for val in row.values()]
        except ArithmeticError:
            values = None
        checks.append(Check(
            f"({r},{n}) symbolic f and g are denominator-free Laurent",
            values is not None))
        if values is not None:
            negative = sum(1 for val in values if any(min(k) < 0 for k in val.terms))
            checks.append(Check(
                f"({r},{n}) observed: no symbolic f or g has a negative exponent",
                negative == 0, f"{negative} of {len(values)} values"))
        if (r, n) == (2, 2):
            checks.append(_central_bases_check(
                ctx, polys, "(2,2) symbolic y_C and z_C central bases"))
    return checks


# the product duality costs #classes^2 full products: on 2 cores 2.8 s at
# (2,4) and 5.1 s at (3,3), against 0.04 s at (2,3)
_DUALITY_BY_PRODUCTS_MAX_DIM = 48


def _central_bases_check(ctx, polys, name):
    """The y_C are central and span a space of dimension #classes; z_C is
    the same family relabelled.  Up to dimension 48 the duality
    tau(y_C T_{w_D}) = delta_{CD} is recomputed by full products, a route
    independent of the left generator actions that built the y_C."""
    from .center import center_bases_yz, is_central
    from .linalg import span
    ys, _ = center_bases_yz(ctx, polys)
    ok = all(is_central(ctx, y) for y in ys.values()) and \
        span(ctx.ring, [y.terms for y in ys.values()]).rank == len(ys)
    if ok and ctx.dimension <= _DUALITY_BY_PRODUCTS_MAX_DIM:
        one, zero = ctx.ring.one(), ctx.ring.zero()
        ok = all((ys[c.label] * t_element(ctx, d.rep)).tau() ==
                 (one if c is d else zero)
                 for c in polys.classes for d in polys.classes)
    return Check(name, ok)


# -- criterion 7: center conjecture instances ------------------------------------------

def criterion_center_conjecture(level="full"):
    from .center import center_conjecture_report
    cases = [(1, 3, 2, (0,)), (2, 2, 2, (0, 1)), (1, 3, 3, (0,))]
    if level == "full":
        cases += [(1, 4, 2, (0,)), (2, 3, 2, (0, 1))]
    checks = []
    for r, n, e, kappa in cases:
        rep = center_conjecture_report(r, n, e, kappa)
        checks.append(Check(
            f"(r={r},n={n},e={e}) center = symmetric JM polynomials, "
            f"dim = #classes",
            rep["center_equals_symmetric_jm"] and
            rep["center_rank_matches_classes"],
            f"dims {rep['dim_center']}/{rep['dim_symmetric_jm']}"
            f" classes {rep['classes']}"))
    return checks


# -- criterion 8: KLR blocks ---------------------------------------------------------

def criterion_klr(level="full"):
    from .center import context_for_weight, is_central
    from .klr import KLRBlocks, WeightData
    checks = []
    cases = [(1, 3, 2, (0,)), (2, 2, 2, (0, 1))]
    if level == "full":
        cases += [(1, 3, 3, (0,)), (2, 2, 3, (0, 1)), (2, 2, 2, (0, 0)),
                  (1, 4, 2, (0,)), (2, 3, 2, (0, 1))]
    for r, n, e, kappa in cases:
        ctx = context_for_weight(r, n, e, kappa)
        blocks = KLRBlocks(ctx, WeightData(e, kappa))
        _, klr_checks = blocks.report()
        ok = all(c[1] for c in klr_checks)
        detail = "; ".join(c[0] for c in klr_checks if not c[1])
        # kappa is named when it is not the default 0, .., r-1
        tag = f"(r={r},n={n},e={e})" if kappa == tuple(range(r)) else \
            f"(r={r},n={n},e={e},kappa={','.join(map(str, kappa))})"
        checks.append(Check(f"{tag} KLR block suite", ok, detail))
        okz = True
        for label in blocks.block_labels():
            for i in range(e):
                z = blocks.z(i, label)
                okz = okz and is_central(ctx, z)
                okz = okz and z == blocks.z_recomputed_reversed(i, label)
        checks.append(Check(
            f"{tag} z(i,alpha) central and enumeration-invariant", okz))
    return checks


# -- criterion 9: cross-oracle consistency ----------------------------------------------

def criterion_cross_oracles(level="full", seed=0):
    from .center import ClassPolynomials
    from .linalg import Elimination
    from .seminormal import SeminormalData, check_semisimple
    rng = random.Random(seed)
    checks = []
    # seminormal-matrix characters versus the tau formula and the regular trace
    for r, n in [(2, 2), (1, 3)]:
        ctx = _spec_ctx(r, n)
        snd = SeminormalData(ctx)
        samples = [ctx.one(), ctx.generator(0)]
        if n >= 2:
            samples.append(ctx.generator(1) * ctx.generator(0))
        idxs = list(ctx.basis_indices())
        samples += [ctx.from_index(rng.choice(idxs)) for _ in range(3)]
        ok = all(
            snd.character(shape, h) == snd.character_via_tau(shape, h)
            == snd.character_via_regular_trace(shape, h)
            for shape in snd.shapes for h in samples
        )
        checks.append(Check(
            f"({r},{n}) characters: seminormal matrices = tau formula "
            f"= regular trace", ok))
    # symbolic class polynomials specialize correctly, at random semisimple
    # points and at fixed non-semisimple ones
    sym_f = {}
    for r, n in [(2, 2), (2, 3)]:
        polys_sym = ClassPolynomials(_fraction_ctx(r, n))
        sym_f[r, n] = {w: polys_sym.f_polys(w, check_residual=False)
                       for w in enumerate_group(GroupParams(r, n))}

    def specializes(ctx_sp, check_residual):
        polys_sp = ClassPolynomials(ctx_sp)
        values = (ctx_sp.xi,) + tuple(ctx_sp.qs)
        return all(
            polys_sp.f_polys(w, check_residual=check_residual) ==
            {c: v.as_laurent().specialize(values, Fraction(1)) for c, v in row.items()}
            for w, row in sym_f[ctx_sp.params.r, ctx_sp.params.n].items())

    semisimple = []
    while len(semisimple) < 3:
        xi = Fraction(rng.randint(2, 7))
        qs = [Fraction(rng.randint(1, 4)), Fraction(rng.randint(5, 50)) ** 2]
        ctx_sp = _spec_ctx(2, 2, xi, qs)
        if check_semisimple(ctx_sp)[0]:
            semisimple.append(ctx_sp)
    ok = all([specializes(ctx_sp, False) for ctx_sp in semisimple])
    checks.append(Check(
        "(2,2) symbolic f specialize to directly computed values "
        "(3 random specializations)", ok))
    for r, n, xi, qs in [(2, 2, -1, (1, -1)), (2, 2, 2, (1, 2)),
                         (2, 3, -1, (1, -1))]:
        ctx_sp = _spec_ctx(r, n, Fraction(xi), [Fraction(q) for q in qs])
        checks.append(Check(
            f"({r},{n}) symbolic f specialize to the certified direct rows at "
            f"non-semisimple xi={xi} Q=({','.join(map(str, qs))})",
            not check_semisimple(ctx_sp)[0] and specializes(ctx_sp, True)))
    # class polynomials against the character-matrix solve
    for r, n in [(1, 3), (2, 2), (2, 3)]:
        ctx = _spec_ctx(r, n)
        snd = SeminormalData(ctx)
        polys = ClassPolynomials(ctx, seminormal=snd)
        characters = Elimination(ctx.ring, polys.character_matrix())
        ok = True
        for w in enumerate_group(ctx.params):
            elt = t_element(ctx, w)
            ok = ok and polys.f_polys(w, check_residual=False) == characters.solve(
                [snd.character(shape, elt) for shape in snd.shapes])
        checks.append(Check(
            f"({r},{n}) class polynomials agree with the character-matrix "
            f"solve, all w", ok))
    return checks


CRITERIA = [
    ("1 group exactness", criterion_group_exactness),
    ("2 reduction certificates", criterion_reduction),
    ("3 hecke relations", criterion_hecke_relations),
    ("4 seminormal suite", criterion_seminormal),
    ("5 center/cocenter dimensions", criterion_center_dims),
    ("6 class polynomials", criterion_class_polynomials),
    ("7 center conjecture instances", criterion_center_conjecture),
    ("8 klr blocks", criterion_klr),
    ("9 cross-oracle consistency", criterion_cross_oracles),
]


def run_acceptance(level="full", only=None):
    """Run (a subset of) the acceptance criteria; returns [(name, [Check])].
    ``only`` lists criterion numbers; an unknown one raises ValueError."""
    numbers = {name.split()[0] for name, _ in CRITERIA}
    wanted = None if only is None else {str(k).strip() for k in only}
    if wanted is not None and not wanted <= numbers:
        raise ValueError(f"unknown criteria {sorted(wanted - numbers)}; "
                         f"choose from 1-{len(CRITERIA)}")
    return [(name, fn(level)) for name, fn in CRITERIA
            if wanted is None or name.split()[0] in wanted]
