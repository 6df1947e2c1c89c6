import gc
from fractions import Fraction

import pytest

from cyclohecke.group import GroupParams, perm_identity
from cyclohecke.tableaux import (
    compositions,
    content,
    content_vector,
    d_perm,
    dominance_leq,
    enumerate_multipartitions,
    multipartition_size,
    removable_nodes,
    residue_sequence,
    standard_tableaux,
    t_row,
    tableau_dominance_leq,
)


def test_counts():
    assert len(enumerate_multipartitions(2, 2)) == 5
    assert len(enumerate_multipartitions(2, 3)) == 10
    assert len(enumerate_multipartitions(3, 2)) == 9
    assert len(enumerate_multipartitions(1, 5)) == 7


def test_dominance_chain():
    a, b, c = ((2,), ()), ((1, 1), ()), ((1,), (1,))
    assert dominance_leq(b, a) and dominance_leq(c, b)
    assert not dominance_leq(a, b) and not dominance_leq(b, c)


def test_row_and_column_tableaux():
    shape = ((2, 1, 1), (1, 1), (2, 1))
    tr = t_row(shape)
    assert tr.rows == (((1, 2), (3,), (4,)), ((5,), (6,)), ((7, 8), (9,)))
    assert d_perm(tr) == perm_identity(9)
    for t in standard_tableaux(((2, 1),)):
        assert tableau_dominance_leq(t, t_row(((2, 1),)))


def test_d_perm_reconstructs():
    shape = ((2,), (1,))
    for t in standard_tableaux(shape):
        d = d_perm(t)
        base = t_row(shape)
        for nd in [(1, 1, 1), (1, 1, 2), (2, 1, 1)]:
            assert t.entry(nd) == d[base.entry(nd) - 1]


@pytest.mark.parametrize("r,n", [(2, 2), (2, 3), (3, 2), (1, 4)])
def test_dimension_identity(r, n):
    total = sum(len(standard_tableaux(s)) ** 2
                for s in enumerate_multipartitions(r, n))
    assert total == GroupParams(r, n).order


def test_standard_tableaux_counts():
    assert len(standard_tableaux(((2, 1),))) == 2
    assert len(standard_tableaux(((1,), (1,)))) == 2
    assert len(standard_tableaux(((3,),))) == 1


def test_contents():
    shape = ((2, 1, 1), (1, 1), (2, 1))
    tr = t_row(shape)
    xi = Fraction(2)
    Q = (Fraction(1), Fraction(100), Fraction(10000))
    assert content(tr, 5, xi, Q) == Q[1]          # component 2, row 1, col 1
    assert content(tr, 1, xi, Q) == Q[0]
    assert content(tr, 2, xi, Q) == xi * Q[0]
    assert content(tr, 3, xi, Q) == Q[0] / xi


def test_content_separation_semisimple():
    xi = Fraction(2)
    Q = (Fraction(1), Fraction(100))
    seen = set()
    for shape in enumerate_multipartitions(2, 3):
        for t in standard_tableaux(shape):
            cv = content_vector(t, xi, Q)
            assert cv not in seen
            seen.add(cv)


def test_residues():
    assert residue_sequence(t_row(((1,),)), 2, (0,)) == (0,)
    assert residue_sequence(t_row(((2,),)), 2, (0,)) == (0, 1)
    # residues determine contents under Q_l = xi^{kappa_l}
    xi = Fraction(3)
    for shape in enumerate_multipartitions(1, 3):
        for t in standard_tableaux(shape):
            rs = residue_sequence(t, 0, (0,))
            cv = content_vector(t, xi, (Fraction(1),))
            assert all(xi ** r == c for r, c in zip(rs, cv))


def test_node_sets():
    shape = ((2, 1), (1,))
    assert set(removable_nodes(shape)) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_compositions():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert multipartition_size(((2, 1), (1,))) == 4


def test_enumeration_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        enumerate_multipartitions(2, 3)
        standard_tableaux(((2, 1), (1,)))
        assert gc.collect() == 0
    finally:
        gc.enable()
