r"""
Block decomposition and KLR-transported elements of $H^\Lambda_{n,K}$.

Requires cyclotomic parameters in a single $\xi$-orbit, $Q_l = \xi^{\kappa_l}$,
with $\xi \ne 1$ of quantum characteristic $e$.  The residue idempotents are
the joint spectral projectors

    e(i) = prod_k E_{k, i_k},

where $E_{k,v}$ projects onto the generalized $v$-eigenspace of
$\mathcal{L}_k$.  The tableau contents give an annihilator of
$\mathcal{L}_k$: at generic parameters $\mathcal{L}_k F_t = c_k(t) F_t$ and
$\sum_t F_t = 1$, so $\prod_{(l,d)} (\mathcal{L}_k - Q_l \xi^d) = 0$, where
$(l, d = c - a)$ runs over the distinct generic contents of the nodes that
entry $k$ occupies in standard tableaux.  The coefficients are Laurent
polynomials, so the identity holds at every specialization; at
$Q_l = \xi^{\kappa_l}$ it reads

    mu_k = prod_i (x - xi^i)^{m_i},   m_i = #{(l, d) : kappa_l + d = i mod e},

and it is re-checked on the algebra.  With $q = \mu_k / (x - \xi^i)^{m_i}$
and a Bezout identity $a (x - \xi^i)^{m_i} + b q = 1$ the projector is
$E_{k,\xi^i} = b(\mathcal{L}_k) q(\mathcal{L}_k)$, the unique polynomial in
$\mathcal{L}_k$ that projects onto that generalized eigenspace.  (A plain
power iteration of normalized factors cannot converge here: on a generalized
eigenspace it acts as a unipotent, never as the identity, whenever
$\mathcal{L}_k$ has a nontrivial Jordan block.)  Projectors and the factors
of $y_m$ are applied by left actions of the $\mathcal{L}_k$
(:func:`hecke.jm_polynomial`), never through full products.

Transported elements:

    y_m      = sum_i (1 - xi^{-i_m} L_m) e(i)          (nilpotent),
    z(i, a)  = sum_{nu in I^a} prod_{k : nu_k = i} y_k e(nu)   (central in
               the block e(a) H).

Blocks are labelled by residue contents; e(alpha) = sum_{i in I^alpha} e(i)
is a central idempotent and the nonzero e(i) are indexed exactly by the
residue sequences of standard tableaux.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .hecke import jm_polynomial, memo
from .linalg import SubspaceBasis
from .rings import poly_bezout, poly_divmod, poly_mul
from .tableaux import enumerate_multipartitions, residue_sequence, standard_tableaux


class KLRError(ArithmeticError):
    pass


class WeightError(KLRError, ValueError):
    """A weight that is invalid or that the context does not realise: bad
    input rather than a failed invariant."""


@dataclass(frozen=True)
class WeightData:
    e: int
    kappa: tuple

    def __post_init__(self):
        if self.e < 2:
            raise WeightError("need quantum characteristic e >= 2 (xi != 1)")

    def multiplicity(self, i):
        """<Lambda, alpha_i^vee> = number of kappa_l congruent to i."""
        return sum(1 for k in self.kappa if k % self.e == i % self.e)


class KLRBlocks:
    """Residue idempotents, blocks, y elements and z(i, alpha)."""

    def __init__(self, ctx, weight):
        self.ctx = ctx
        self.weight = weight
        ring = ctx.ring
        e = weight.e
        # the context must realise the weight: quantum characteristic and orbit
        if len(weight.kappa) != len(ctx.qs):
            raise WeightError(f"need one kappa per cyclotomic parameter, "
                              f"{len(ctx.qs)} in all")
        total = ring.zero()
        power = ring.one()
        for k in range(e):
            if k and ring.is_zero(total):
                raise WeightError(f"xi has quantum characteristic {k}, not {e}")
            total = total + power
            power = power * ctx.xi
        if not ring.is_zero(total):
            raise WeightError("1 + xi + .. + xi^{e-1} does not vanish")
        self.xi_powers = [ring.one()]
        for _ in range(e - 1):
            self.xi_powers.append(self.xi_powers[-1] * ctx.xi)
        for l, kap in enumerate(weight.kappa, start=1):
            if not (ctx.qs[l - 1] == self.xi_powers[kap % e]):
                raise WeightError(f"Q{l} != xi^kappa_{l}")
        self._spectral = self._spectral_projectors()
        self.idempotents = self._joint_idempotents()
        # the residue sequences of each block, keyed by residue content
        self.blocks = {}
        for i in self.idempotents:
            self.blocks.setdefault(tuple(sorted(Counter(i).items())), []).append(i)

    # -- single-operator spectral projectors --------------------------------

    def _spectral_projectors(self):
        """For each k, {residue i: coefficients of the polynomial in L_k that
        projects onto its generalized xi^i-eigenspace}."""
        ctx, ring = self.ctx, self.ctx.ring
        e, kappa, n = self.weight.e, self.weight.kappa, ctx.params.n
        generic = [set() for _ in range(n)]
        for shape in enumerate_multipartitions(ctx.params.r, n):
            for t in standard_tableaux(shape):
                for k in range(1, n + 1):
                    l, a, c = t.node_of(k)
                    generic[k - 1].add((l, c - a))
        out = []
        for k, contents in enumerate(generic, start=1):
            mults = Counter((kappa[l - 1] + d) % e for l, d in contents)
            factors = {}
            mu = [ring.one()]
            for i, m in sorted(mults.items()):
                factors[i] = [ring.one()]
                for _ in range(m):
                    factors[i] = poly_mul(ring, factors[i],
                                          [-self.xi_powers[i], ring.one()])
                mu = poly_mul(ring, mu, factors[i])
            if not jm_polynomial(ctx, k, mu, ctx.one()).is_zero():
                raise KLRError(f"the content polynomial does not annihilate L_{k}")
            projs = {}
            total = ctx.zero()
            for i, factor in factors.items():
                q, _ = poly_divmod(ring, mu, factor)
                _, b = poly_bezout(ring, factor, q)
                projs[i] = poly_mul(ring, b, q)
                proj = jm_polynomial(ctx, k, projs[i], ctx.one())
                if not (jm_polynomial(ctx, k, projs[i], proj) == proj):
                    raise KLRError("spectral projector failed idempotency")
                total = total + proj
            if not (total == ctx.one()):
                raise KLRError("spectral projectors do not resolve the identity")
            out.append(projs)
        return out

    # -- joint idempotents e(i) ----------------------------------------------

    def _joint_idempotents(self):
        """The nonzero e(i), in lexicographic order of i: the projector
        polynomials of L_n down to L_1 applied to 1, so that a zero partial
        product prunes every sequence that extends it."""
        partial = {(): self.ctx.one()}
        for k in range(self.ctx.params.n, 0, -1):
            step = {}
            for suffix, x in partial.items():
                for i, poly in self._spectral[k - 1].items():
                    y = jm_polynomial(self.ctx, k, poly, x)
                    if not y.is_zero():
                        step[(i,) + suffix] = y
            partial = step
        return dict(sorted(partial.items()))

    def _times_e(self, i, x):
        """e(i) x for a residue sequence i of the support."""
        for k in range(len(i), 0, -1):
            if x.is_zero():
                break
            x = jm_polynomial(self.ctx, k, self._spectral[k - 1][i[k - 1]], x)
        return x

    def support(self):
        return sorted(self.idempotents)

    def expected_support(self):
        """Residue sequences of standard tableaux for the weight."""
        seqs = set()
        p = self.ctx.params
        for shape in enumerate_multipartitions(p.r, p.n):
            for t in standard_tableaux(shape):
                seqs.add(residue_sequence(t, self.weight.e, self.weight.kappa))
        return sorted(seqs)

    # -- blocks ----------------------------------------------------------------

    def block_labels(self):
        """Residue contents alpha with e(alpha) != 0, as sorted count tuples,
        each with its residue sequences."""
        return self.blocks

    def _block(self, label):
        return self.blocks.get(tuple(sorted(label)), [])

    @memo
    def block_idempotent(self, label):
        elt = self.ctx.zero()
        for i in self._block(label):
            elt = elt + self.idempotents[i]
        return elt

    def block_dimension(self, label):
        """dim e(alpha) H as the rank of left multiplication by e(alpha)."""
        ealpha = self.block_idempotent(label)
        basis = SubspaceBasis(self.ctx.ring)
        for idx in self.ctx.basis_indices():
            img = ealpha * self.ctx.from_index(idx)
            basis.add(img.terms)
        return basis.rank

    # -- KLR y elements and z(i, alpha) ------------------------------------------

    def y(self, m):
        out = self.ctx.zero()
        for i, ei in self.idempotents.items():
            out = out + jm_polynomial(self.ctx, m, self._y_factor(i[m - 1]), ei)
        return out

    def _y_factor(self, i):
        """1 - xi^{-i} x: y_k acts on e(nu) as this polynomial in L_k when
        nu_k = i."""
        return [self.ctx.ring.one(), -self._xi_power(-i)]

    def _xi_power(self, k):
        e = self.weight.e
        return self.xi_powers[k % e]

    def nilpotency_exponent(self, elt):
        """Least N <= dim with elt^N = 0, or None."""
        cur = self.ctx.one()
        for power in range(1, self.ctx.dimension + 1):
            cur = cur * elt
            if cur.is_zero():
                return power
        return None

    def cyclotomic_check(self):
        """y_1^{<Lambda, alpha_{nu_1}^vee>} e(nu) = 0 for every nu."""
        for nu, e_nu in self.idempotents.items():
            cur = e_nu
            for _ in range(self.weight.multiplicity(nu[0])):
                cur = jm_polynomial(self.ctx, 1, self._y_factor(nu[0]), cur)
            if not cur.is_zero():
                return False, nu
        return True, None

    def z(self, i, label):
        """z(i, alpha) = sum_{nu in I^alpha} prod_{k: nu_k = i} y_k e(nu)."""
        ctx = self.ctx
        out = ctx.zero()
        for nu in self._block(label):
            part = self.idempotents[nu]
            for k, res in enumerate(nu, start=1):
                if res % self.weight.e == i % self.weight.e:
                    part = jm_polynomial(ctx, k, self._y_factor(i), part)
            out = out + part
        return out

    def z_recomputed_reversed(self, i, label):
        """Same sum over a reversed enumeration; a permutation-invariance check."""
        ctx = self.ctx
        out = ctx.zero()
        for nu in reversed(self._block(label)):
            part = self.idempotents[nu]
            for k in range(len(nu), 0, -1):
                if nu[k - 1] % self.weight.e == i % self.weight.e:
                    part = part - (ctx.jm(k) * part).scale(self._xi_power(-i))
            out = out + part
        return out

    # -- report ------------------------------------------------------------------

    def report(self):
        from .center import is_central
        ctx = self.ctx
        blocks = []
        checks = []
        ids = list(self.idempotents.items())
        total = ctx.zero()
        for _, ei in ids:
            total = total + ei
        checks.append(("sum e(i) = 1", total == ctx.one(), ""))
        orth = all(self._times_e(i, ej).is_zero()
                   for i, _ in ids for j, ej in ids if i != j)
        idem = all(self._times_e(i, ei) == ei for i, ei in ids)
        checks.append(("e(i) orthogonal idempotents", orth and idem, ""))
        checks.append((
            "support matches standard-tableaux residue sequences",
            self.support() == self.expected_support(), "",
        ))
        for label, seqs in sorted(self.block_labels().items()):
            ealpha = self.block_idempotent(label)
            central = is_central(ctx, ealpha)
            blocks.append({
                "content": [list(item) for item in label],
                "sequences": [list(s) for s in seqs],
                "dimension": self.block_dimension(label),
                "central": central,
            })
            checks.append((f"e(alpha) central for {label}", central, ""))
        ok, bad = self.cyclotomic_check()
        checks.append(("cyclotomic relation y_1^mult e(nu) = 0", ok,
                       "" if ok else str(bad)))
        for m in range(1, ctx.params.n + 1):
            npow = self.nilpotency_exponent(self.y(m))
            checks.append((f"y_{m} nilpotent", npow is not None,
                           f"exponent {npow}"))
        return blocks, checks
