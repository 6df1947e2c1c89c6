"""The benchmark workloads.

A workload turns a seed into a fixed list of operations (``inputs``), builds
fresh library objects for one pass (``setup``), and runs one operation at a
time against them.  Each operation yields one certified result: it raises
when the library's own certificate or the workload's check fails.  ``fmt``
renders a result as the exact text that goes into the output digest.

Seed 0 issues elements in ``(length, colors, perm)`` order, as the CLI does;
any other seed shuffles that order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cyclohecke.center import ClassPolynomials, center, commutator_subspace
from cyclohecke.group import GroupParams, enumerate_classes, enumerate_group, length
from cyclohecke.hecke import AlgebraContext
from cyclohecke.reduction import reduce_to_minimal, verify_certificate
from cyclohecke.rings import RingSpec
from cyclohecke.seminormal import SeminormalData
from cyclohecke.tableaux import enumerate_multipartitions


class CheckFailed(AssertionError):
    """An operation's result failed the workload's own check."""


@dataclass(frozen=True)
class Op:
    key: str                          # unique, order-free name of the result
    run: Callable[[dict], object]     # state -> result; raises when not certified
    fmt: Callable[[object], str]      # result -> digest text


def spec_context(r, n, xi=2, qs=(1, 100)):
    ring = RingSpec.specialized(Fraction(xi), [Fraction(q) for q in qs[:r]])
    return AlgebraContext(GroupParams(r, n), ring, ring.xi(),
                          [ring.q(l) for l in range(1, r + 1)])


def fraction_context(r, n):
    ring = RingSpec.fraction(r)
    return AlgebraContext(GroupParams(r, n), ring, ring.xi(),
                          [ring.q(l) for l in range(1, r + 1)])


def cli_order(params):
    return sorted(enumerate_group(params), key=lambda w: (length(w), w.colors, w.perm))


def issue_order(ops, seed):
    if seed != 0:
        random.Random(seed).shuffle(ops)
    return ops


def _element_key(w):
    return json.dumps(w.to_json(), sort_keys=True)


def _label(label):
    return "|".join(",".join(map(str, part)) for part in label)


def _row_text(ring, row):
    return json.dumps({_label(k): ring.format(v) for k, v in row.items()}, sort_keys=True)


class ClassPolySpec:
    """f and g rows with residual certification over a rational point."""

    name = "classpoly-spec"

    def __init__(self, r=2, n=3):
        self.r, self.n = r, n

    def setup(self):
        ctx = spec_context(self.r, self.n)
        polys = ClassPolynomials(ctx, seminormal=SeminormalData(ctx))
        polys.character_matrix()
        polys.commutator_basis()
        return {"polys": polys}

    def inputs(self, seed):
        ops = []
        for kind in ("f", "g"):
            for w in cli_order(GroupParams(self.r, self.n)):
                ops.append(Op(f"{kind} {_element_key(w)}",
                              lambda s, kind=kind, w=w: self._row(s["polys"], kind, w),
                              self._fmt))
        return issue_order(ops, seed)

    @staticmethod
    def _row(polys, kind, w):
        solve = polys.f_polys if kind == "f" else polys.g_polys
        return polys.ctx.ring, solve(w, check_residual=True)

    @staticmethod
    def _fmt(result):
        return _row_text(*result)


class ClassPolySymbolic:
    """f (and g) rows over the fraction field, each coefficient required to be
    a Laurent polynomial."""

    name = "classpoly-symbolic"

    def __init__(self, cases=(((2, 2), "fg"), ((1, 3), "fg"), ((3, 1), "fg"))):
        self.cases = cases

    def setup(self):
        state = {}
        for (r, n), _ in self.cases:
            ctx = fraction_context(r, n)
            polys = ClassPolynomials(ctx, seminormal=SeminormalData(ctx))
            polys.character_matrix()
            state[(r, n)] = polys
        return state

    def inputs(self, seed):
        ops = []
        for (r, n), kinds in self.cases:
            for kind in kinds:
                for w in cli_order(GroupParams(r, n)):
                    ops.append(Op(f"{kind} ({r},{n}) {_element_key(w)}",
                                  lambda s, rn=(r, n), kind=kind, w=w:
                                      self._row(s[rn], kind, w),
                                  self._fmt))
        return issue_order(ops, seed)

    @staticmethod
    def _row(polys, kind, w):
        solve = polys.f_polys if kind == "f" else polys.g_polys
        row = solve(w, check_residual=False)
        # as_laurent raises when a denominator survives
        return {k: v.as_laurent() for k, v in row.items()}

    @staticmethod
    def _fmt(row):
        return _row_text(RingSpec.laurent(next(iter(row.values())).nq), row)


class ReduceCenter:
    """Certified minimal-length reduction of every element, then commutator
    and center ranks."""

    name = "reduce-center"

    def __init__(self, groups=((3, 3), (2, 4)),
                 points=((2, 4, 2, (1, 100)), (2, 4, -1, (1, -1)))):
        self.groups = groups
        self.points = points

    def setup(self):
        return {point: spec_context(*point)
                for point in self.points}

    def inputs(self, seed):
        ops = []
        for r, n in self.groups:
            for cls in enumerate_classes(GroupParams(r, n)):
                minimal = min(length(w) for w in cls)
                for w in cls:
                    ops.append(Op(f"reduce ({r},{n}) {_element_key(w)}",
                                  lambda s, w=w, minimal=minimal: self._reduce(w, minimal),
                                  lambda cert: json.dumps(cert.to_json(), sort_keys=True)))
        for point in self.points:
            tag = "({},{}) xi={} Q={}".format(*point)
            ops.append(Op(f"commutator {tag}",
                          lambda s, point=point: self._rank(s[point], "commutator"),
                          str))
            ops.append(Op(f"center {tag}",
                          lambda s, point=point: self._rank(s[point], "center"),
                          str))
        return issue_order(ops, seed)

    @staticmethod
    def _reduce(w, minimal):
        cert = reduce_to_minimal(w, canonical=True)
        ok, why = verify_certificate(cert)
        if not ok:
            raise CheckFailed(f"certificate replay failed: {why}")
        if cert.terminal_length != minimal:
            raise CheckFailed(f"terminal length {cert.terminal_length} != {minimal}")
        return cert

    @staticmethod
    def _rank(ctx, what):
        classes = len(enumerate_multipartitions(ctx.params.r, ctx.params.n))
        if what == "commutator":
            rank, want = commutator_subspace(ctx).rank, ctx.dimension - classes
        else:
            rank, want = center(ctx)[1].rank, classes
        if rank != want:
            raise CheckFailed(f"{what} rank {rank} != {want}")
        return rank


WORKLOADS = {cls.name: cls for cls in (ClassPolySpec, ClassPolySymbolic, ReduceCenter)}
