import pytest

from conftest import spec_context

from cyclohecke.center import context_for_weight, is_central
from cyclohecke.klr import KLRBlocks, KLRError, WeightData, minimal_polynomial
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


def test_minimal_polynomial_quadratic():
    ctx = context_for_weight(1, 2, 2, (0,))
    mu = minimal_polynomial(ctx, ctx.generator(1))
    # (T + 1)(T - xi) with xi = -1 collapses to (T + 1)^2
    assert len(mu) == 3


def test_minimal_polynomial_of_generators_at_a_semisimple_point():
    # (T_1 - xi)(T_1 + 1) and (T_0 - Q_1)(T_0 - Q_2), xi = 2, Q = (1, 100)
    ctx = spec_context(2, 2)
    assert minimal_polynomial(ctx, ctx.generator(1)) == [-2, -1, 1]
    assert minimal_polynomial(ctx, ctx.generator(0)) == [100, -101, 1]
    assert minimal_polynomial(ctx, ctx.one()) == [-1, 1]


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
