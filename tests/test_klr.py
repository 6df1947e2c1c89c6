import itertools

import pytest

from cyclohecke.center import context_for_weight, is_central
from cyclohecke import klr
from cyclohecke.hecke import HeckeElement
from cyclohecke.klr import KLRBlocks, KLRError, WeightData
from cyclohecke.tableaux import (
    enumerate_multipartitions,
    residue_sequence,
    standard_tableaux,
)


@pytest.fixture(scope="module")
def blocks13():
    ctx = context_for_weight(1, 3, 2, (0,))
    return KLRBlocks(ctx, WeightData(2, (0,)))


@pytest.fixture(scope="module")
def blocks22():
    ctx = context_for_weight(2, 2, 2, (0, 1))
    return KLRBlocks(ctx, WeightData(2, (0, 1)))


def _reference_projector(ctx, k, v, roots):
    """The generalized v-eigenspace projector of L_k from full products:
    A = prod_{u != v} (L_k - u) / (v - u) is the identity plus a nilpotent
    there and nilpotent on every other generalized eigenspace, and
    X -> 3 X^2 - 2 X^3 squares the nilpotent error at each step."""
    one = ctx.one()
    x = one
    for u in roots:
        if u != v:
            x = (ctx.jm(k) - one.scale(u)) * x
            x = x.scale(ctx.ring.invert(v - u))
    for _ in range(ctx.dimension.bit_length() + 1):
        if x * x == x:
            return x
        x = (x * x).scale(ctx.ring.from_int(3)) - (x * x * x).scale(ctx.ring.from_int(2))
    raise AssertionError("the projector iteration did not settle")


@pytest.mark.parametrize("r,n,e,kappa", [(2, 3, 2, (0, 1)), (2, 2, 3, (0, 1))])
def test_idempotents_match_a_product_built_reference(r, n, e, kappa):
    ctx = context_for_weight(r, n, e, kappa)
    blocks = KLRBlocks(ctx, WeightData(e, kappa))
    roots = blocks.xi_powers
    projectors = [[_reference_projector(ctx, k, v, roots) for v in roots]
                  for k in range(1, n + 1)]
    want = {}
    for seq in itertools.product(range(e), repeat=n):
        elt = ctx.one()
        for k, i in enumerate(seq):
            elt = elt * projectors[k][i]
        if not elt.is_zero():
            want[seq] = elt
    assert list(blocks.idempotents) == list(want)
    assert blocks.idempotents == want


def test_jm_polynomials_make_no_full_products(monkeypatch):
    ctx = context_for_weight(2, 2, 3, (0, 1))

    def refuse(self, other):
        raise AssertionError("full product")

    monkeypatch.setattr(HeckeElement, "__mul__", refuse)
    blocks = KLRBlocks(ctx, WeightData(3, (0, 1)))
    assert blocks.cyclotomic_check() == (True, None)
    for m in (1, 2):
        blocks.y(m)
    for label in blocks.block_labels():
        for i in range(3):
            blocks.z(i, label)
        # the reversed enumeration stays on products, as an independent route
        with pytest.raises(AssertionError, match="full product"):
            blocks.z_recomputed_reversed(label[0][0], label)


def test_content_annihilator_is_checked(monkeypatch):
    # with the tableaux of one shape only, the content polynomial of L_2 is
    # x - xi, which L_2 does not satisfy
    real = klr.standard_tableaux
    monkeypatch.setattr(klr, "standard_tableaux",
                        lambda shape: real(shape) if shape == ((3,),) else [])
    ctx = context_for_weight(1, 3, 2, (0,))
    with pytest.raises(KLRError, match="annihilate L_2"):
        KLRBlocks(ctx, WeightData(2, (0,)))


def test_idempotent_completeness(blocks13, blocks22):
    for blocks in (blocks13, blocks22):
        ctx = blocks.ctx
        total = ctx.zero()
        ids = list(blocks.idempotents.values())
        for ei in ids:
            assert ei * ei == ei
            total = total + ei
        assert total == ctx.one()
        for a in range(len(ids)):
            for b in range(len(ids)):
                if a != b:
                    assert (ids[a] * ids[b]).is_zero()


def test_support_matches_tableaux(blocks13, blocks22):
    for blocks in (blocks13, blocks22):
        assert blocks.support() == blocks.expected_support()


def test_single_row_block_structure():
    # n = 1: blocks correspond to the distinct residues of the kappas
    ctx = context_for_weight(2, 1, 2, (0, 1))
    blocks = KLRBlocks(ctx, WeightData(2, (0, 1)))
    assert len(blocks.block_labels()) == 2


def test_block_idempotents_central(blocks13, blocks22):
    for blocks in (blocks13, blocks22):
        ctx = blocks.ctx
        labels = list(blocks.block_labels())
        total = ctx.zero()
        for label in labels:
            ealpha = blocks.block_idempotent(label)
            assert is_central(ctx, ealpha)
            total = total + ealpha
        assert total == ctx.one()
        for i, l1 in enumerate(labels):
            for l2 in labels[i + 1:]:
                prod = blocks.block_idempotent(l1) * blocks.block_idempotent(l2)
                assert prod.is_zero()
        dims = sum(blocks.block_dimension(l) for l in labels)
        assert dims == ctx.dimension


def test_y_nilpotent(blocks13, blocks22):
    for blocks in (blocks13, blocks22):
        for m in range(1, blocks.ctx.params.n + 1):
            assert blocks.nilpotency_exponent(blocks.y(m)) is not None


def test_cyclotomic_relation(blocks13, blocks22):
    for blocks in (blocks13, blocks22):
        ok, bad = blocks.cyclotomic_check()
        assert ok, bad


def test_z_central_per_block(blocks13, blocks22):
    for blocks in (blocks13, blocks22):
        ctx = blocks.ctx
        for label in blocks.block_labels():
            for i in range(blocks.weight.e):
                z = blocks.z(i, label)
                assert is_central(ctx, z)
                assert z == blocks.z_recomputed_reversed(i, label)


def test_z_empty_products(blocks22):
    for label in blocks22.block_labels():
        present = {i for i, _ in label}
        for i in range(blocks22.weight.e):
            if i not in present:
                assert blocks22.z(i, label) == blocks22.block_idempotent(label)


def test_z_nilpotent_when_residue_present(blocks13):
    for label, seqs in blocks13.block_labels().items():
        counts = dict(label)
        for i, count in counts.items():
            if count:
                z = blocks13.z(i, label)
                assert blocks13.nilpotency_exponent(z) is not None


def test_weight_validation():
    ctx = context_for_weight(1, 2, 2, (0,))
    with pytest.raises(KLRError):
        KLRBlocks(ctx, WeightData(3, (0,)))       # wrong quantum characteristic
    with pytest.raises(KLRError):
        WeightData(1, (0,))


def test_report(blocks13):
    block_list, checks = blocks13.report()
    assert all(ok for _, ok, _ in checks)
    assert sum(b["dimension"] for b in block_list) == blocks13.ctx.dimension


def test_jm_nilpotent_on_blocks(blocks13):
    # L_m - xi^{i_m} acts nilpotently on e(i) H
    ctx = blocks13.ctx
    for i, ei in blocks13.idempotents.items():
        for m in range(1, ctx.params.n + 1):
            x = (ctx.jm(m) - ctx.one().scale(blocks13._xi_power(i[m - 1]))) * ei
            assert blocks13.nilpotency_exponent(x) is not None, (i, m)
