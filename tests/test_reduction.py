from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohecke.group import (
    ColoredSemiBicomposition,
    GroupElement,
    GroupParams,
    chain_blocks,
    conjugacy_invariant,
    dc_normal_form,
    divisor_chain,
    enumerate_classes,
    enumerate_group,
    eval_word,
    length,
    phi_bijection_full,
    theta_factorization,
    w_alpha,
)
from cyclohecke import reduction
from cyclohecke.reduction import (
    InternalInconsistencyError,
    ReductionCertificate,
    ReductionStep,
    TailStep,
    _core_top,
    _peel,
    reduce_to_minimal,
    try_move,
    verify_certificate,
)


def test_admissible_move_conditions():
    P = GroupParams(2, 3)
    w = eval_word(P, (2, 1, 0, 1, 2, 0))
    step = try_move(w, 0)
    if step is not None:
        assert step.len_after <= step.len_before
        assert step.side in ("left", "right", "both")
    # already-minimal elements admit no strictly-decreasing neighbors
    s2 = GroupElement.gen_s(P, 2)
    for tok in range(3):
        step = try_move(s2, tok)
        assert step is None or step.after == s2 or length(step.after) == 1


def test_block_form_has_empty_certificate():
    P = GroupParams(2, 3)
    for lam, eps, mu_sorted in [((1, 2), (1, 0), True), ((3,), (1,), True)]:
        alpha = ColoredSemiBicomposition(
            tuple(p for p, e in zip(lam, eps) if e),
            tuple(e for e in eps if e),
            tuple(p for p, e in zip(lam, eps) if not e),
        )
        w, _ = w_alpha(P, alpha)
        cert = reduce_to_minimal(w)
        assert cert.steps == [] and cert.terminal == alpha


def test_mu_sorting_is_strong_conjugation_not_admissible():
    # s_2 and s_1 are both minimal in S_3; no admissible chain joins them,
    # so the canonical form is reached by the recorded tail witnesses.
    P = GroupParams(1, 3)
    s2 = GroupElement.gen_s(P, 2)
    cert = reduce_to_minimal(s2, canonical=True)
    assert cert.steps == []
    assert cert.terminal.mu == (1, 2)
    assert cert.canonical.mu == (2, 1)
    assert len(cert.tail) == 1
    assert cert.canonical_element == GroupElement.gen_s(P, 1)
    ok, detail = verify_certificate(cert)
    assert ok, detail


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2), (3, 3)])
def test_exhaustive_reduction(r, n):
    P = GroupParams(r, n)
    for cls in enumerate_classes(P):
        minimal = min(length(w) for w in cls)
        canonical_elements = set()
        for w in cls:
            cert = reduce_to_minimal(w, canonical=True)
            ok, detail = verify_certificate(cert)
            assert ok, detail
            assert cert.terminal_length == minimal
            assert cert.canonical.is_bipartition()
            assert length(cert.canonical_element) == minimal
            canonical_elements.add(cert.canonical_element)
        assert len(canonical_elements) == 1
        assert phi_bijection_full(P, cert.canonical) == \
            conjugacy_invariant(cls[0])


def test_every_step_certified():
    P = GroupParams(2, 3)
    w = eval_word(P, (2, 1, 0, 1, 2, 0))
    cert = reduce_to_minimal(w, canonical=True)
    cur = w
    for step in cert.steps:
        assert step.before == cur
        g = eval_word(P, (step.conjugator,))
        assert step.after == g * cur * g.inverse()
        lb = length(cur)
        assert step.len_before == lb and step.len_after <= lb
        left = length(g * cur) < lb
        right = length(cur * g.inverse()) < lb
        assert {"left": left, "right": right, "both": left and right}[step.side]
        cur = step.after
    assert cur == cert.terminal_element


def test_certificate_serialization():
    P = GroupParams(2, 3)
    w = eval_word(P, (1, 2, 0, 1))
    cert = reduce_to_minimal(w, canonical=True)
    payload = cert.to_json()
    assert payload["terminal_length"] == length(cert.terminal_element)
    assert len(payload["steps"]) == len(cert.steps)


def _forged_certificates():
    """(certificate, detail) pairs, one tampered field per failure branch of
    verify_certificate."""
    P = GroupParams(2, 3)
    cert = reduce_to_minimal(eval_word(P, (0, 1, 2, 1, 0, 1)), canonical=True)
    steps = cert.steps
    assert len(steps) == 4 and steps[0].side == "right"

    def with_step(i, **changes):
        forged = list(steps)
        forged[i] = replace(steps[i], **changes)
        return replace(cert, steps=forged)

    out = [
        (with_step(1, before=steps[0].before), "step 1: chain broken"),
        (with_step(0, conjugator=2), "step 0: not a conjugation by the stated generator"),
        (with_step(0, len_before=steps[0].len_before + 1),
         "step 0: recorded lengths are wrong"),
        (with_step(0, side="left"), "step 0: recorded descent condition does not hold"),
        (with_step(0, conjugator=7), "step 0: conjugator out of range"),
        (replace(cert, terminal_element=steps[-1].before), "terminal element mismatch"),
        # labels that name no element of G(2,3): size 2, and a color >= r
        (replace(cert, terminal=ColoredSemiBicomposition((1,), (1,), (1,))),
         "terminal element mismatch"),
        (replace(cert, terminal=ColoredSemiBicomposition((3,), (2,), ())),
         "terminal element mismatch"),
        (replace(cert, canonical=ColoredSemiBicomposition((3,), (1,), ())),
         "canonical label mismatch"),
        (replace(cert, canonical_element=steps[-1].before), "canonical element mismatch"),
    ]

    # S_3: s_1 = w_beta with mu = (2, 1); s_2 reaches it by one tail step
    S = GroupParams(1, 3)
    s1, s2 = GroupElement.gen_s(S, 1), GroupElement.gen_s(S, 2)
    up = ReductionStep(2, s1, eval_word(S, (2, 1, 2)), 1, 3, "both")
    out.append((replace(reduce_to_minimal(s1, canonical=True), steps=[up]),
                "step 0: length increased"))
    cert2 = reduce_to_minimal(s2, canonical=True)
    assert cert2.tail and cert2.canonical_element == s1
    for tail, detail in [
        ([TailStep((1, 2), s2, s2)], "tail step 0: not the stated strong conjugation"),
        ([TailStep((1,), s2, eval_word(S, (1, 2, 1)))], "tail step 0: length not preserved"),
        ([TailStep((2, 1, 2), s2, s1)], "tail step 0: length additivity fails"),
        ([TailStep((1, 3), s2, s1)], "tail step 0: conjugator out of range"),
    ]:
        out.append((replace(cert2, tail=tail), detail))
    out.append((replace(cert2, tail=[], canonical_element=s2), "tail does not end on w_beta"))
    # a tail that walks off w_beta is refused also without canonical_element
    c = reduce_to_minimal(s1, canonical=True)
    out.append((ReductionCertificate(c.start, c.steps, c.terminal, c.terminal_element,
                                     c.canonical, [TailStep((2, 1), s1, s2)], None),
                "tail does not end on w_beta"))
    return out


def test_forged_certificates_are_rejected():
    for cert, detail in _forged_certificates():
        assert verify_certificate(cert) == (False, detail)


def test_replay_does_not_use_the_generator_actions(monkeypatch):
    """The producer moves by lmul_gen/rmul_gen; the replay must accept every
    certificate with both of them gone."""
    certs = [reduce_to_minimal(w, canonical=True)
             for r, n in ((3, 3), (2, 4)) for w in enumerate_group(GroupParams(r, n))]

    def refuse(*args, **kwargs):
        raise AssertionError("the replay used a generator action")

    monkeypatch.setattr(GroupElement, "lmul_gen", refuse)
    monkeypatch.setattr(GroupElement, "rmul_gen", refuse)
    for cert in certs:
        assert verify_certificate(cert) == (True, "ok")


def test_replay_checks_the_group_parameters_of_each_step():
    P = GroupParams(2, 3)
    cert = reduce_to_minimal(eval_word(P, (0, 1, 2, 1, 0, 1)), canonical=True)
    for k, step in enumerate(cert.steps):
        alien = GroupElement(GroupParams(P.r + 1, P.n), step.after.colors, step.after.perm)
        forged = list(cert.steps)
        forged[k] = replace(step, after=alien)
        assert verify_certificate(replace(cert, steps=forged)) == (
            False, f"step {k}: not a conjugation by the stated generator")


def _reference_peel(w):
    """Stage 1 through the double-coset normal form and the product law:
    form core = cur * suffix^-1, take dc_normal_form(core, m), conjugate by
    the last letter of its b part, or prepend its d to the suffix when b is
    trivial."""
    params = w.params
    steps, cur = [], w
    suffix = GroupElement.identity(params)
    m = params.n
    while m >= 2:
        dc = dc_normal_form(cur * suffix.inverse(), m)
        if dc.b.is_identity():
            suffix = dc.d * suffix
            m -= 1
            continue
        step = try_move(cur, dc.b_word[-1])
        assert step is not None
        steps.append(step)
        cur = step.after
    return steps, cur


class _BoundedSteps(list):
    """A step list that fails, rather than grows without end, once a peel
    makes more moves than the reference did."""

    def __init__(self, bound):
        super().__init__()
        self.bound = bound

    def append(self, step):
        assert len(self) < self.bound, "more moves than the reference peel"
        super().append(step)


def _check_peel(w):
    ref_steps, ref_cur = _reference_peel(w)
    steps = _BoundedSteps(len(ref_steps))
    cur, ds = _peel(w, steps)
    assert steps == ref_steps and cur == ref_cur
    assert ds == divisor_chain(cur)
    assert chain_blocks(ds) == theta_factorization(cur)[1:]


@pytest.mark.parametrize("r,n", [(1, 4), (2, 3), (3, 3), (2, 4), (4, 3)])
def test_tuple_peel_matches_the_product_law_exhaustively(r, n):
    for w in enumerate_group(GroupParams(r, n)):
        _check_peel(w)


@pytest.mark.parametrize("r,n", [(2, 6), (3, 5), (4, 4)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tuple_peel_matches_the_product_law(r, n, data):
    colors = data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(1, n + 1)))
    _check_peel(GroupElement(GroupParams(r, n), colors, perm))


def test_peel_refuses_a_core_outside_the_level():
    P = GroupParams(2, 3)
    cur = GroupElement.identity(P)
    # suffix s_2: core = s_2 moves position 3, so it is not in W_2
    with pytest.raises(InternalInconsistencyError):
        _core_top(cur, [0, 0, 0], [1, 3, 2], 2)
    # suffix s'_{2,1}: core carries color 1 in position 3
    with pytest.raises(InternalInconsistencyError):
        _core_top(cur, [0, 0, 1], [1, 2, 3], 2)
    assert _core_top(cur, [0, 0, 0], [1, 2, 3], 2) == (2, 0)


def test_peel_raises_when_a_move_makes_no_progress(monkeypatch):
    """A producer that picks an admissible move which lowers neither length
    nor length(b) must raise, not loop; the call counter turns a missing
    guard into a failure instead of a hang."""
    calls = []

    def stalled_move(cur, token, len_before=None):
        calls.append(token)
        if len(calls) > 50:
            raise RuntimeError("the peel kept moving without progress")
        ln = length(cur)
        return ReductionStep(token, cur, cur, ln, ln, "left")

    monkeypatch.setattr(reduction, "try_move", stalled_move)
    w = eval_word(GroupParams(2, 3), (2, 1, 0))     # peels by t, s_1, t
    with pytest.raises(InternalInconsistencyError, match="stopped lowering"):
        reduce_to_minimal(w)
    assert calls == [0]


@pytest.mark.parametrize("name,fault,detail", [
    # a block swap that records none of its moves
    ("_conjugation_path", lambda real: lambda src, dst, tokens: [],
     "terminal element mismatch"),
    # a strong-conjugation swap that records no witness
    ("_strong_swap", lambda real: lambda cur, blocks, i, tail:
     real(cur, blocks, i, []), "canonical element mismatch"),
], ids=["moves", "tail"])
def test_self_check_refuses_a_faulty_producer(monkeypatch, name, fault, detail):
    """The producer stores the elements it ends on and leaves comparing them
    with w_alpha and w_beta to the replay: a faulty producer is refused, and
    every certificate it still returns is the fault-free one."""
    elements = list(enumerate_group(GroupParams(3, 3)))
    honest = {w: reduce_to_minimal(w, canonical=True) for w in elements}
    monkeypatch.setattr(reduction, name, fault(getattr(reduction, name)))
    refused = 0
    for w in elements:
        try:
            cert = reduce_to_minimal(w, canonical=True)
        except InternalInconsistencyError as exc:
            assert str(exc) == f"certificate failed self-check: {detail}"
            refused += 1
        else:
            assert cert == honest[w]
    assert refused
