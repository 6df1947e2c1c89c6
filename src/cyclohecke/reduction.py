r"""
Conjugating an element of $W_n$ to a minimal-length class representative,
with a step-by-step certificate.

A single move $w \to x w x^{-1}$ (one generator $x$) is *admissible* when
$\ell(xwx^{-1}) \le \ell(w)$ and additionally $\ell(xw) < \ell(w)$ or
$\ell(wx^{-1}) < \ell(w)$.  Chains of admissible moves never increase the
length, and every element admits a chain ending in a block product
$w_\alpha$ attached to a colored semi-bicomposition $\alpha$; such block
products are of minimal length in their conjugacy class.

The engine runs in two stages and records every move:

1. *Peeling.*  Working down the tower $W_n \supset W_{n-1} \supset \cdots$,
   repeatedly conjugate by the last letter of the $b$ part of the current
   double-coset normal form $w = a\,d\,b$.  Each such move is admissible
   (the right product drops by one letter) and the measure
   $(\ell(w), \ell(b))$ decreases lexicographically, so the stage terminates
   with $w = d_1 d_2 \cdots d_n$, a product of blocks $w_{\lambda,\epsilon}$.
   The peel checks the decrease at every move and raises if it fails.
   The peel forms no normal form and no group product for this: it keeps the
   suffix $d_{m+1} \cdots d_n$ as a color list and a permutation list, and
   reads off it and $w$, by the product law, the column $p$ that the core
   $w\,(d_{m+1} \cdots d_n)^{-1} \in W_m$ sends to row $m$ and the color
   $\rho$ of that column.  The last letter of $b$ is $s_p$ when $\rho = 0$
   and $s_{p-1}$ ($t$ when $p = 1$) otherwise; $b$ is trivial exactly when
   $d_m$ is $1$, $s_{m-1}$ or $s'_{m-1,\rho}$, which the peel records, so the
   divisor chain, and with it $(\lambda, \epsilon)$, comes out of the peel.
   ``dc_normal_form`` remains the public normal form.

2. *Block sorting.*  Adjacent blocks are swapped until the colored blocks
   come first in weakly increasing size (colors weakly decreasing on equal
   sizes).  Each such swap has a conjugation schedule supported on the
   window of the two blocks; the engine finds one by breadth-first search
   over admissible moves restricted to the window and verifies every step
   at runtime, rather than trusting a precomputed index schedule.

The terminal $w_\alpha$ has minimal length in its conjugacy class, but the
uncolored part $\mu$ of $\alpha$ is only a composition.  Sorting $\mu$ into
a partition is *not* possible with admissible moves: already $s_2$ and $s_1$
in $\mathfrak{S}_3$ are both minimal and every single-generator conjugation
between them passes through length 3.  The canonical representative
$w_\beta$ (with $\mu$ a partition) is instead reached by *strong
conjugation*: length-preserving steps $v \mapsto y^{-1} v y$ with
$\ell(vy) = \ell(v) + \ell(y)$, exchanging adjacent uncolored blocks.  These
are recorded separately as ``TailStep`` witnesses.

Every certificate can be replayed independently via ``verify_certificate``,
and ``reduce_to_minimal`` replays its own before returning it: the producer
only records the elements its moves and its tail end on, and the replay
compares them with $w_\alpha$ and $w_\beta$.  The engine produces its moves
with the generator actions ``lmul_gen`` and ``rmul_gen`` on the tuples; the
replay recomputes each move as $g\,w\,g^{-1}$ by the general product law
(``group._product``) on the ``(colors, perm)`` tuples, and its lengths with
``group._length``, so every certificate checks the producer through a second
code path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .group import (
    ColoredSemiBicomposition,
    GroupElement,
    GroupError,
    _length,
    _product,
    chain_blocks,
    eval_word,
    gen_element,
    length,
    w_alpha,
    w_lambda_eps,
)


class InternalInconsistencyError(AssertionError):
    """A theorem-backed invariant failed at runtime."""


@dataclass(frozen=True)
class ReductionStep:
    conjugator: int           # generator token: 0 for t, i for s_i
    before: GroupElement
    after: GroupElement
    len_before: int
    len_after: int
    side: str                 # which descent condition held

    def to_json(self):
        from .group import format_word
        return {
            "conjugator": format_word((self.conjugator,)),
            "before": self.before.to_json(),
            "after": self.after.to_json(),
            "len_before": self.len_before,
            "len_after": self.len_after,
            "side": self.side,
        }


@dataclass(frozen=True)
class TailStep:
    """Strong-conjugation witness: after = y^{-1} * before * y with
    len(before * y) = len(before) + len(y) and length preserved."""

    conjugator_word: tuple
    before: GroupElement
    after: GroupElement

    def to_json(self):
        from .group import format_word
        return {
            "conjugator": format_word(self.conjugator_word),
            "before": self.before.to_json(),
            "after": self.after.to_json(),
            "length": length(self.before),
        }


@dataclass
class ReductionCertificate:
    start: GroupElement
    steps: list
    terminal: ColoredSemiBicomposition
    terminal_element: GroupElement
    canonical: ColoredSemiBicomposition
    tail: list = field(default_factory=list)
    canonical_element: GroupElement = None

    @property
    def terminal_length(self):
        return length(self.terminal_element)

    def to_json(self):
        out = {
            "start": self.start.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "terminal": self.terminal.to_json(),
            "terminal_element": self.terminal_element.to_json(),
            "terminal_length": self.terminal_length,
            "canonical": self.canonical.to_json(),
        }
        if self.tail:
            out["tail"] = [s.to_json() for s in self.tail]
        if self.canonical_element is not None:
            out["canonical_element"] = self.canonical_element.to_json()
        return out


def try_move(cur, token, len_before=None):
    """The admissible move conjugating by one generator, or None.
    ``len_before``, when the caller already has it, is ``length(cur)``."""
    if len_before is None:
        len_before = length(cur)
    gw = cur.lmul_gen(token)
    nxt = gw.rmul_gen(token, -1)
    len_after = length(nxt)
    if len_after > len_before:
        return None
    left = length(gw) < len_before
    right = length(cur.rmul_gen(token, -1)) < len_before
    if not (left or right):
        return None
    side = "both" if left and right else ("left" if left else "right")
    return ReductionStep(token, cur, nxt, len_before, len_after, side)


def _core_top(cur, sc, sp, m):
    """(p, rho) for core = cur * suffix^-1 with suffix = (sc, sp): the column
    p that core sends to row m, and its color.  By the product law column
    sp[j] of core is sent to row cur.perm[j] with color cur.colors[j] - sc[j];
    every column above m must be fixed with color 0, i.e. core lies in W_m."""
    r = cur.params.r
    p = rho = None
    for j, row in enumerate(cur.perm):
        col, color = sp[j], (cur.colors[j] - sc[j]) % r
        if col > m:
            if row != col or color:
                raise InternalInconsistencyError(f"peeled core escaped W_{m}")
        elif row == m:
            p, rho = col, color
    return p, rho


def _peel(w, steps):
    """Stage 1: conjugate down to a product of level divisors d_1 .. d_n.

    Returns the final element and its divisor chain, in the form that
    ``divisor_chain`` gives it.  The suffix d_{m+1} .. d_n is kept as a color
    list and a permutation list, and the core's top row is read off it and
    ``cur`` without forming the core.

    Within one level every move must lower (length(cur), length(b))
    lexicographically, which is what makes the peel terminate; length(b) is
    m-1-p when rho = 0 and m+rho+p-3 otherwise, the length of the ``b_word``
    of ``dc_normal_form``.  A move that does not raises instead of looping."""
    n, r = w.params.n, w.params.r
    cur, cur_len = w, None
    sc, sp = [0] * n, list(range(1, n + 1))
    ds = [None] * n
    m = n
    last = None               # (length(cur), length(b)) before the last move
    while m >= 2:
        p, rho = _core_top(cur, sc, sp, m)
        if p == m:
            # b = 1, d = 1 or s'_{m-1,rho}: rho joins the column sent to row m
            if rho:
                col = sp.index(m)
                sc[col] = (sc[col] + rho) % r
            ds[m - 1] = ("sprime", rho) if rho else ("one",)
            m, last = m - 1, None
        elif p == m - 1 and rho == 0:
            # b = 1, d = s_{m-1}: exchange the values m-1 and m
            lo, hi = sp.index(m - 1), sp.index(m)
            sp[lo], sp[hi] = m, m - 1
            ds[m - 1] = ("s",)
            m, last = m - 1, None
        else:
            # the last letter of b: s_p, or s_{p-1} (t when p = 1) after t^rho
            token = p if rho == 0 else p - 1
            b_len = m - 1 - p if rho == 0 else m + rho + p - 3
            if last is not None and (cur_len, b_len) >= last:
                raise InternalInconsistencyError(
                    f"peeling at level {m} stopped lowering (length, length(b))")
            step = try_move(cur, token, cur_len)
            if step is None:
                raise InternalInconsistencyError(
                    f"peeling move by {token} violated the descent condition")
            steps.append(step)
            last = (step.len_before, b_len)
            cur, cur_len = step.after, step.len_after
    ds[0] = ("t", _core_top(cur, sc, sp, 1)[1])
    return cur, ds


def _conjugation_path(src, dst, tokens):
    """Shortest chain of admissible moves from src to dst using the given
    conjugator tokens.  Existence is guaranteed for the block swaps below."""
    if src == dst:
        return []
    parents = {src: None}
    queue = deque([(src, length(src))])
    while queue:
        cur, cur_len = queue.popleft()
        for token in tokens:
            step = try_move(cur, token, cur_len)
            if step is None or step.after in parents:
                continue
            parents[step.after] = step
            if step.after == dst:
                path = []
                node = dst
                while parents[node] is not None:
                    st = parents[node]
                    path.append(st)
                    node = st.before
                return list(reversed(path))
            queue.append((step.after, step.len_after))
    raise InternalInconsistencyError(
        "no admissible conjugation schedule found for a block swap")


def _exchanged(params, blocks, i):
    """For swapping adjacent blocks i, i+1: the start of their window, the
    block list with the two exchanged, and its block product w_lambda_eps."""
    start = sum(size for size, _ in blocks[:i])
    new_blocks = list(blocks)
    new_blocks[i], new_blocks[i + 1] = blocks[i + 1], blocks[i]
    sizes, colors = zip(*new_blocks)
    return start, new_blocks, w_lambda_eps(params, sizes, colors)[0]


def _swap_blocks(cur, blocks, i, steps):
    """Swap adjacent blocks i, i+1 via a window-supported move schedule."""
    start, new_blocks, target = _exchanged(cur.params, blocks, i)
    width = blocks[i][0] + blocks[i + 1][0]
    tokens = list(range(start + 1, start + width))
    steps.extend(_conjugation_path(cur, target, tokens))
    return target, new_blocks


def _block_exchange_perm(params, start, p1, p2):
    """The permutation exchanging adjacent windows of sizes p1 and p2."""
    img = list(range(1, params.n + 1))
    for i in range(1, p1 + 1):
        img[start + i - 1] = start + p2 + i
    for i in range(1, p2 + 1):
        img[start + p1 + i - 1] = start + i
    colors = (0,) * params.n
    return GroupElement(params, colors, tuple(img))


def _strong_swap(cur, blocks, i, tail):
    """Exchange adjacent uncolored blocks i, i+1 by strong conjugation."""
    params = cur.params
    start, new_blocks, target = _exchanged(params, blocks, i)
    y = _block_exchange_perm(params, start, blocks[i][0], blocks[i + 1][0])
    for cand in (y, y.inverse()):
        if (cand.inverse() * cur * cand == target
                and length(cur * cand) == length(cur) + length(cand)):
            break
    else:
        raise InternalInconsistencyError("block exchange witness failed")
    from .group import coxeter_word
    tail.append(TailStep(coxeter_word(cand.perm), cur, target))
    return target, new_blocks


def _sort_blocks(cur, blocks, span, out_of_order, swap, record):
    """Swap the first adjacent pair i, i+1 (i in ``span``) that is
    ``out_of_order``, with ``swap`` recording into ``record``, and restart
    until no pair is."""
    while True:
        i = next((i for i in span if out_of_order(blocks[i], blocks[i + 1])),
                 None)
        if i is None:
            return cur, blocks
        cur, blocks = swap(cur, blocks, i, record)


def reduce_to_minimal(w, canonical=False):
    """Conjugate w to a minimal-length element w_alpha, with certificate.

    The admissible-move chain always ends on a block product indexed by a
    colored semi-bicomposition.  With ``canonical=True`` the certificate
    additionally carries strong-conjugation witnesses sorting the uncolored
    part into a partition, landing on the canonical class representative
    w_beta (the element ``canonical_element``).
    """
    steps = []
    cur, ds = _peel(w, steps)
    lam, eps = chain_blocks(ds)
    blocks = list(zip(lam, eps))

    # colored blocks migrate to the front
    cur, blocks = _sort_blocks(
        cur, blocks, range(len(blocks) - 1),
        lambda a, b: a[1] == 0 and b[1] != 0, _swap_blocks, steps)
    # colored prefix: sizes weakly increasing, colors weakly decreasing on ties
    k = sum(1 for _, c in blocks if c != 0)
    cur, blocks = _sort_blocks(
        cur, blocks, range(k - 1),
        lambda a, b: a[0] > b[0] or (a[0] == b[0] and a[1] < b[1]),
        _swap_blocks, steps)

    alpha = ColoredSemiBicomposition(
        lam=tuple(size for size, color in blocks[:k]),
        colors=tuple(color for _, color in blocks[:k]),
        mu=tuple(size for size, color in blocks[k:]),
    )
    beta = ColoredSemiBicomposition(
        alpha.lam, alpha.colors, tuple(sorted(alpha.mu, reverse=True)))

    tail = []
    canonical_element = None
    if canonical:
        # uncolored suffix: sizes weakly decreasing
        canonical_element, _ = _sort_blocks(
            cur, blocks, range(k, len(blocks) - 1),
            lambda a, b: a[0] < b[0], _strong_swap, tail)

    # the self-check replays the moves onto w_alpha and the tail onto w_beta
    cert = ReductionCertificate(w, steps, alpha, cur, beta, tail,
                                canonical_element)
    ok, detail = verify_certificate(cert)
    if not ok:
        raise InternalInconsistencyError(f"certificate failed self-check: {detail}")
    return cert


def verify_certificate(cert):
    """Independent replay of a certificate. Returns (ok, detail).

    Each move is replayed with the general product law ``g * cur * g^-1``
    on the (colors, perm) tuples, not with the generator actions that
    produced it, so that the replay checks the producer through a second
    code path."""
    params = cert.start.params
    r = params.r
    cur = cert.start
    cur_t = (cur.colors, cur.perm)
    cur_len = _length(*cur_t)
    gens = {}                 # token -> (g, g^-1), as tuple pairs
    for idx, step in enumerate(cert.steps):
        if step.before != cur:
            return False, f"step {idx}: chain broken"
        if step.conjugator not in range(params.n):
            return False, f"step {idx}: conjugator out of range"
        if step.conjugator not in gens:
            g = gen_element(params, step.conjugator)
            g_inv = g.inverse()
            gens[step.conjugator] = (g.colors, g.perm), (g_inv.colors, g_inv.perm)
        g, g_inv = gens[step.conjugator]
        g_cur = _product(r, g, cur_t)
        after = step.after
        after_t = (after.colors, after.perm)
        if _product(r, g_cur, g_inv) != after_t or after.params != params:
            return False, f"step {idx}: not a conjugation by the stated generator"
        lb, la = cur_len, _length(*after_t)
        if (lb, la) != (step.len_before, step.len_after):
            return False, f"step {idx}: recorded lengths are wrong"
        if la > lb:
            return False, f"step {idx}: length increased"
        left = _length(*g_cur) < lb
        right = _length(*_product(r, cur_t, g_inv)) < lb
        want = {"left": left, "right": right, "both": left and right}.get(step.side)
        if not want:
            return False, f"step {idx}: recorded descent condition does not hold"
        cur, cur_t, cur_len = after, after_t, la
    try:
        expect, _ = w_alpha(params, cert.terminal)
    except GroupError:
        return False, "terminal element mismatch"
    if cur != expect or cur != cert.terminal_element:
        return False, "terminal element mismatch"
    want_beta = ColoredSemiBicomposition(
        cert.terminal.lam, cert.terminal.colors,
        tuple(sorted(cert.terminal.mu, reverse=True)))
    if cert.canonical != want_beta or not cert.canonical.is_bipartition():
        return False, "canonical label mismatch"
    for idx, step in enumerate(cert.tail):
        if step.before != cur:
            return False, f"tail step {idx}: chain broken"
        if any(tok not in range(params.n) for tok in step.conjugator_word):
            return False, f"tail step {idx}: conjugator out of range"
        y = eval_word(params, step.conjugator_word)
        if y.inverse() * cur * y != step.after:
            return False, f"tail step {idx}: not the stated strong conjugation"
        if length(step.after) != cur_len:
            return False, f"tail step {idx}: length not preserved"
        if length(cur * y) != cur_len + length(y):
            return False, f"tail step {idx}: length additivity fails"
        cur = step.after
    if cert.canonical_element is not None and cur != cert.canonical_element:
        return False, "canonical element mismatch"
    if (cert.tail or cert.canonical_element is not None) \
            and cur != w_alpha(params, cert.canonical)[0]:
        return False, "tail does not end on w_beta"
    return True, "ok"
