r"""
Block decomposition and KLR-transported elements of $H^\Lambda_{n,K}$.

Requires cyclotomic parameters in a single $\xi$-orbit, $Q_l = \xi^{\kappa_l}$,
with $\xi \ne 1$ of quantum characteristic $e$.  The Jucys-Murphy elements
then have all eigenvalues among $\{\xi^j : j \in \mathbb{Z}/e\}$ and the
residue idempotents are the joint spectral projectors

    e(i) = prod_k E_{k, i_k},

where $E_{k,v}$ projects onto the generalized $v$-eigenspace of
$\mathcal{L}_k$.  Each $E_{k,v}$ is an exact polynomial in $\mathcal{L}_k$:
with minimal polynomial $\mu = (x-v)^{m} q(x)$ and a Bezout identity
$a (x-v)^{m} + b q = 1$ the projector is $E_{k,v} = b(\mathcal{L}_k)
q(\mathcal{L}_k)$.  (A plain power iteration of normalized factors cannot
converge here: on a generalized eigenspace it acts as a unipotent, never as
the identity, whenever $\mathcal{L}_k$ has a nontrivial Jordan block.)

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

from .linalg import SubspaceBasis, solve
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


def _peval_element(ctx, poly, elt):
    """Horner evaluation of a coefficient polynomial at an algebra element."""
    out = ctx.zero()
    for c in reversed(poly):
        out = out * elt + ctx.one().scale(c)
    return out


def minimal_polynomial(ctx, elt):
    """Monic minimal polynomial of an algebra element, low degree first.
    The powers of elt enter one echelon until a power depends on the ones
    before it; that dependency is then solved for once."""
    ring = ctx.ring
    basis = SubspaceBasis(ring)
    powers = []
    cur = ctx.one()
    while basis.add(cur.terms):
        powers.append(cur)
        if len(powers) > ctx.dimension + 1:
            raise KLRError("minimal polynomial exceeded the dimension bound")
        cur = cur * elt
    keys = sorted(set(cur.terms).union(*(p.terms for p in powers)))
    matrix = [{j: p.terms[idx] for j, p in enumerate(powers) if idx in p.terms}
              for idx in keys]
    sol = solve(ring, matrix, [cur.terms.get(idx, ring.zero()) for idx in keys])
    return [-sol.get(j, ring.zero()) for j in range(len(powers))] + [ring.one()]


def _root_multiplicities(ring, poly, candidates):
    """Factor poly as prod (x - v)^{m_v} over the candidate roots."""
    rest = list(poly)
    mults = {}
    for v in candidates:
        m = 0
        while len(rest) > 1:
            quot, rem = poly_divmod(ring, rest, [-v, ring.one()])
            if rem:
                break
            rest = quot
            m += 1
        if m:
            mults[v] = m
    if len(rest) != 1:
        raise KLRError("eigenvalues are not all powers of xi")
    return mults


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

    # -- single-operator spectral projectors --------------------------------

    def _spectral_projectors(self):
        ctx, ring, e = self.ctx, self.ctx.ring, self.weight.e
        out = []
        for k in range(1, ctx.params.n + 1):
            jm = ctx.jm(k)
            mu = minimal_polynomial(ctx, jm)
            mults = _root_multiplicities(ring, mu, self.xi_powers)
            projs = {}
            total = ctx.zero()
            for v, m in mults.items():
                factor = [ring.one()]
                for _ in range(m):
                    factor = poly_mul(ring, factor, [-v, ring.one()])
                q, rem = poly_divmod(ring, mu, factor)
                if rem:
                    raise KLRError("inconsistent factorization")
                _, b = poly_bezout(ring, factor, q)
                proj = _peval_element(ctx, poly_mul(ring, b, q), jm)
                if not (proj * proj == proj):
                    raise KLRError("spectral projector failed idempotency")
                projs[self.xi_powers.index(v)] = proj
                total = total + proj
            if not (total == ctx.one()):
                raise KLRError("spectral projectors do not resolve the identity")
            out.append(projs)
        return out

    # -- joint idempotents e(i) ----------------------------------------------

    def _joint_idempotents(self):
        import itertools
        ctx = self.ctx
        out = {}
        residue_options = [sorted(projs.keys()) for projs in self._spectral]
        for combo in itertools.product(*residue_options):
            elt = ctx.one()
            for k, i in enumerate(combo):
                elt = elt * self._spectral[k][i]
                if elt.is_zero():
                    break
            if not elt.is_zero():
                out[tuple(combo)] = elt
        return out

    def e(self, i):
        return self.idempotents.get(tuple(j % self.weight.e for j in i),
                                    self.ctx.zero())

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
        """Residue contents alpha with e(alpha) != 0, as sorted count tuples."""
        labels = {}
        for i in self.idempotents:
            key = tuple(sorted(Counter(i).items()))
            labels.setdefault(key, []).append(i)
        return labels

    def block_idempotent(self, label):
        key = tuple(sorted(label))
        elt = self.ctx.zero()
        for i, ei in self.idempotents.items():
            if tuple(sorted(Counter(i).items())) == key:
                elt = elt + ei
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
        ctx = self.ctx
        out = ctx.zero()
        jm = ctx.jm(m)
        for i, ei in self.idempotents.items():
            inv = self._xi_power(-i[m - 1])
            out = out + (ei - (jm * ei).scale(inv))
        return out

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
        ctx = self.ctx
        jm1 = ctx.jm(1)
        for nu, e_nu in self.idempotents.items():
            mult = self.weight.multiplicity(nu[0])
            y1_enu = e_nu - (jm1 * e_nu).scale(self._xi_power(-nu[0]))
            cur = e_nu
            for _ in range(mult):
                cur = cur * y1_enu
            if not cur.is_zero():
                return False, nu
        return True, None

    def z(self, i, label):
        """z(i, alpha) = sum_{nu in I^alpha} prod_{k: nu_k = i} y_k e(nu)."""
        ctx = self.ctx
        key = tuple(sorted(label))
        out = ctx.zero()
        for nu, e_nu in self.idempotents.items():
            if tuple(sorted(Counter(nu).items())) != key:
                continue
            part = e_nu
            jm_cache = {}
            for k, res in enumerate(nu, start=1):
                if res % self.weight.e == i % self.weight.e:
                    jm = jm_cache.setdefault(k, ctx.jm(k))
                    part = part - (jm * part).scale(self._xi_power(-i))
            out = out + part
        return out

    def z_recomputed_reversed(self, i, label):
        """Same sum over a reversed enumeration; a permutation-invariance check."""
        ctx = self.ctx
        key = tuple(sorted(label))
        out = ctx.zero()
        for nu, e_nu in sorted(self.idempotents.items(), reverse=True):
            if tuple(sorted(Counter(nu).items())) != key:
                continue
            part = e_nu
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
        orth = all(
            (ids[a][1] * ids[b][1]).is_zero()
            for a in range(len(ids)) for b in range(len(ids)) if a != b
        )
        idem = all((ei * ei == ei) for _, ei in ids)
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
