r"""
Batch command-line front end.

Subcommands
-----------

``group``   normal-form | length | reduce | classes
``hecke``   mult | relations | class-polys | dual-class-polys | center |
            seminormal | cocenter-rank
``klr``     blocks
``selftest`` quick | full

Coefficients are chosen with ``--ring {Q|cyclo:E|laurent|fraction}`` or a
specialization string ``--spec "xi=V,Q=V1,..,Vr"`` (values parsed in the
chosen ring; with no ``--ring`` a spec string means exact rationals).

Reports are JSON on stdout (deterministic key order); ``--format table``
renders a readable summary and ``--format csv`` emits delimited rows for
matrix-shaped results.  Exit status: 0 all checks passed, 1 a check failed,
2 usage error, 3 internal inconsistency (a theorem-backed invariant failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from .group import (
    GroupParams,
    bm_normal_form,
    dc_normal_form,
    eval_word,
    format_word,
    length,
    parse_word,
)
from .hecke import AlgebraContext, HeckeElement, t_element, word_product
from .rings import RingSpec


class UsageError(ValueError):
    pass


def build_ring(args, r):
    ring_arg = getattr(args, "ring", None)
    spec_arg = getattr(args, "spec", None)
    if ring_arg is None:
        ring = RingSpec.rational() if spec_arg else RingSpec.laurent(r)
    elif ring_arg == "Q":
        ring = RingSpec.rational()
    elif ring_arg.startswith("cyclo:"):
        ring = RingSpec.cyclotomic(int(ring_arg.split(":", 1)[1]))
    elif ring_arg == "laurent":
        ring = RingSpec.laurent(r)
    elif ring_arg == "fraction":
        ring = RingSpec.fraction(r)
    else:
        raise UsageError(f"unknown ring {ring_arg!r}")
    if ring.kind in ("laurent", "fraction-of-laurent"):
        if spec_arg:
            raise UsageError(f"--spec does not apply to --ring {ring_arg}: "
                             "its parameters stay symbolic")
        return ring, ring.xi(), [ring.q(l) for l in range(1, r + 1)]
    if not spec_arg:
        raise UsageError("this ring needs --spec \"xi=V,Q=V1,..,Vr\"")
    fields = dict(
        item.split("=", 1) for item in spec_arg.replace(" ", "").split(",", 1)
    )
    if "xi" not in fields or "Q" not in fields:
        raise UsageError("--spec must look like \"xi=V,Q=V1,..,Vr\"")
    xi = _parse_spec_value(ring, fields["xi"])
    q_texts = fields["Q"].split(",")
    if len(q_texts) != r:
        raise UsageError(f"need exactly r={r} cyclotomic parameters")
    qs = [_parse_spec_value(ring, t) for t in q_texts]
    return ring, xi, qs


def _parse_spec_value(ring, text):
    """One --spec value; a zero denominator is the user's, not ours."""
    try:
        return ring.parse(text)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in --spec value {text!r}") from None


def build_context(args, need_field=False):
    params = GroupParams(args.r, args.n)
    ring, xi, qs = build_ring(args, args.r)
    if need_field and not ring.is_field:
        raise UsageError(
            "this command needs field coefficients; pass --spec "
            "\"xi=V,Q=V1,..,Vr\" or --ring fraction")
    return AlgebraContext(params, ring, xi, qs)


# -- group subcommands -----------------------------------------------------------

def cmd_group_normal_form(args):
    params = GroupParams(args.r, args.n)
    w = eval_word(params, parse_word(params, args.word))
    bm = bm_normal_form(w)
    dc = dc_normal_form(w)
    result = {
        "element": w.to_json(),
        "bm": {
            "a": list(bm.a),
            "v": list(bm.v),
            "word": format_word(bm.word),
            "length": bm.length(),
        },
        "dc": {
            "a": dc.a.to_json(),
            "d_word": format_word(dc.d_word),
            "b_word": format_word(dc.b_word),
        },
    }
    checks = [
        ("bm word reconstructs", eval_word(params, bm.word) == w, ""),
        ("dc lengths additive",
         length(w) == length(dc.a) + len(dc.d_word) + len(dc.b_word), ""),
    ]
    return result, checks


def cmd_group_length(args):
    params = GroupParams(args.r, args.n)
    w = eval_word(params, parse_word(params, args.word))
    bm = bm_normal_form(w)
    return {"element": w.to_json(), "length": length(w),
            "bm_word": format_word(bm.word)}, []


def cmd_group_reduce(args):
    from .reduction import reduce_to_minimal, verify_certificate
    params = GroupParams(args.r, args.n)
    w = eval_word(params, parse_word(params, args.word))
    cert = reduce_to_minimal(w, canonical=args.canonical)
    ok, detail = verify_certificate(cert)
    result = cert.to_json()
    return result, [("certificate valid", ok, detail)]


def cmd_group_classes(args):
    from .center import class_data
    params = GroupParams(args.r, args.n)
    infos = class_data(params)
    sizes = {}
    if params.order <= args.budget:
        from .group import conjugacy_invariant, enumerate_classes
        for cls in enumerate_classes(params, args.budget):
            sizes[conjugacy_invariant(cls[0])] = len(cls)
    result = {
        "count": len(infos),
        "classes": [
            {
                "label": [list(c) for c in info.label],
                "representative_word": format_word(info.word),
                "min_length": info.min_length,
                **({"size": sizes[info.label]} if info.label in sizes else {}),
            }
            for info in infos
        ],
    }
    checks = []
    if sizes:
        checks.append(("class sizes sum to group order",
                       sum(sizes.values()) == params.order, ""))
    return result, checks


# -- hecke subcommands ------------------------------------------------------------

def _element_from_args(ctx, word_text, json_text):
    if word_text is not None:
        tokens = parse_word(ctx.params, word_text)
        return word_product(ctx, tokens)
    if json_text is not None:
        return HeckeElement.from_json(ctx, json.loads(json_text))
    raise UsageError("provide a generator word or a serialized element")


def cmd_hecke_mult(args):
    ctx = build_context(args)
    x = _element_from_args(ctx, args.x_word, args.x)
    y = _element_from_args(ctx, args.y_word, args.y)
    return {"product": (x * y).to_json()}, []


def cmd_hecke_relations(args):
    from .acceptance import _relation_checks
    import random
    ctx = build_context(args)
    rng = random.Random(args.seed)
    checks = _relation_checks(ctx, f"({args.r},{args.n})", rng, args.trials)
    return {"context": _context_json(ctx)}, [(c.name, c.passed, c.detail)
                                             for c in checks]


def _context_json(ctx):
    return {
        "r": ctx.params.r,
        "n": ctx.params.n,
        "ring": repr(ctx.ring),
        "xi": ctx.ring.format(ctx.xi),
        "Q": [ctx.ring.format(q) for q in ctx.qs],
    }


def _class_poly_table(ctx, polys, words):
    """The f rows of words, and whether every residual lies in [H,H]; the
    certification stops at the first failure."""
    from .group import bm_word
    rows = {}
    residual_ok = True
    for w in words:
        coeffs = polys.f_polys(w, check_residual=False)
        residual_ok = residual_ok and polys.residual_in_commutators(
            t_element(ctx, w), coeffs)
        rows[format_word(bm_word(w))] = {
            "|".join(",".join(map(str, c)) for c in label):
                ctx.ring.format(val)
            for label, val in coeffs.items()
        }
    return rows, residual_ok


def cmd_hecke_class_polys(args):
    from .center import ClassPolynomials, representative_dependence_report
    from .group import enumerate_group
    ctx = build_context(args, need_field=True)
    polys = ClassPolynomials(ctx)
    if args.word:
        words = [eval_word(ctx.params, parse_word(ctx.params, args.word))]
    else:
        words = sorted(enumerate_group(ctx.params, args.budget),
                       key=lambda w: (length(w), w.colors, w.perm))
    table, residual_ok = _class_poly_table(ctx, polys, words)
    result = {
        "context": _context_json(ctx),
        "classes": ["|".join(",".join(map(str, c)) for c in info.label)
                    for info in polys.classes],
        "f": table,
    }
    checks = [("residuals lie in [H,H]", residual_ok, "")]
    if args.compare_reps:
        report = representative_dependence_report(
            ctx, polys.commutator_basis(), args.budget)
        result["representative_dependence"] = report
    return result, checks


def cmd_hecke_dual_class_polys(args):
    from .center import ClassPolynomials, center_bases_yz, is_central
    from .group import bm_word, enumerate_group
    ctx = build_context(args, need_field=True)
    polys = ClassPolynomials(ctx)
    table = {}
    for w in sorted(enumerate_group(ctx.params, args.budget),
                    key=lambda w: (length(w), w.colors, w.perm)):
        coeffs = polys.g_polys(w, check_residual=False)
        table[format_word(bm_word(w))] = {
            "|".join(",".join(map(str, c)) for c in label):
                ctx.ring.format(val)
            for label, val in coeffs.items()
        }
    ys, _ = center_bases_yz(ctx, polys)   # z_C is y_{beta_hat(C)}
    ok = all(is_central(ctx, y) for y in ys.values())
    result = {"context": _context_json(ctx), "g": table}
    return result, [("y_C and z_C are central", ok, "")]


def cmd_hecke_center(args):
    from .center import center, spans_equal, symmetric_jm_subalgebra
    from .tableaux import enumerate_multipartitions
    ctx = build_context(args, need_field=True)
    _, zbasis = center(ctx)
    expected = len(enumerate_multipartitions(args.r, args.n))
    result = {
        "context": _context_json(ctx),
        "dim_center": zbasis.rank,
        "classes": expected,
    }
    checks = [("dim Z = #classes", zbasis.rank == expected,
               f"{zbasis.rank} vs {expected}")]
    if args.check_symmetric_jm:
        sym = symmetric_jm_subalgebra(ctx)
        result["dim_symmetric_jm"] = sym.rank
        checks.append(("center = symmetric JM polynomials",
                       spans_equal(zbasis, sym), ""))
    return result, checks


def cmd_hecke_cocenter_rank(args):
    from .center import commutator_subspace
    from .tableaux import enumerate_multipartitions
    ctx = build_context(args, need_field=True)
    comm = commutator_subspace(ctx)
    expected = ctx.dimension - len(enumerate_multipartitions(args.r, args.n))
    result = {
        "context": _context_json(ctx),
        "rank_commutator": comm.rank,
        "dimension": ctx.dimension,
    }
    return result, [("rank [H,H] = dim - #classes", comm.rank == expected,
                     f"{comm.rank} vs {expected}")]


def cmd_hecke_seminormal(args):
    from .center import ClassPolynomials
    from .seminormal import SeminormalData, check_semisimple
    ctx = build_context(args, need_field=True)
    ok, witness = check_semisimple(ctx)
    if not ok:
        return ({"context": _context_json(ctx), "semisimple": False,
                 "witness": witness},
                [("parameters semisimple", False, witness)])
    snd = SeminormalData(ctx)
    polys = ClassPolynomials(ctx, seminormal=snd)
    characters = {
        "rows": [[list(c) for c in shape] for shape in snd.shapes],
        "cols": [format_word(info.word) for info in polys.classes],
        "entries": [[ctx.ring.format(row[info.label]) for info in polys.classes]
                    for row in polys.character_matrix()],
    }
    result = {
        "context": _context_json(ctx),
        "semisimple": True,
        "schur_elements": {
            str([list(c) for c in shape]): ctx.ring.format(snd.schur(shape))
            for shape in snd.shapes
        },
        "characters": characters,
    }
    checks = [
        ("resolution of identity", snd.resolution_of_identity() == ctx.one(), ""),
        ("F_lambda = symmetric JM polynomial",
         all(snd.central_idempotent_via_symmetric(s) == snd.F_lambda(s)
             for s in snd.shapes), ""),
    ]
    return result, checks


# -- klr / selftest -----------------------------------------------------------------

def cmd_klr_blocks(args):
    from .klr import KLRBlocks, WeightData
    kappa = tuple(int(k) for k in args.kappa.split(","))
    ctx = build_context(args, need_field=True)
    blocks = KLRBlocks(ctx, WeightData(args.e, kappa))
    block_list, checks = blocks.report()
    result = {
        "context": _context_json(ctx),
        "e": args.e,
        "kappa": list(kappa),
        "support": [list(i) for i in blocks.support()],
        "blocks": block_list,
    }
    return result, checks


def cmd_selftest(args):
    from .acceptance import run_acceptance
    only = args.criteria.split(",") if args.criteria else None
    results = run_acceptance(args.level, only)
    checks = []
    result = {"level": args.level, "criteria": {}}
    for name, crit_checks in results:
        result["criteria"][name] = [c.as_json() for c in crit_checks]
        for c in crit_checks:
            checks.append((f"{name}: {c.name}", c.passed, c.detail))
    return result, checks


# -- report plumbing -----------------------------------------------------------------

def render(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "table":
        lines = [f"command: {report['command']}"]
        for key, val in sorted(report["params"].items()):
            lines.append(f"  {key} = {val}")
        lines.append("result:")
        lines.extend("  " + line for line in
                     json.dumps(report["result"], indent=2,
                                sort_keys=True).splitlines())
        if report["checks"]:
            lines.append("checks:")
            for c in report["checks"]:
                mark = "PASS" if c["passed"] else "FAIL"
                detail = f"  ({c['detail']})" if c["detail"] else ""
                lines.append(f"  [{mark}] {c['name']}{detail}")
        return "\n".join(lines)
    if fmt == "csv":
        rows = _csv_rows(report)
        return "\n".join(",".join(_csv_quote(cell) for cell in row)
                         for row in rows)
    raise UsageError(f"unknown format {fmt!r}")


def _csv_quote(cell):
    cell = str(cell)
    if any(ch in cell for ch in ',"\n'):
        cell = '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_rows(report):
    result = report["result"]
    for key in ("f", "g"):
        if isinstance(result, dict) and key in result:
            table = result[key]
            labels = sorted({lab for row in table.values() for lab in row})
            rows = [["w"] + labels]
            for wname in sorted(table):
                rows.append([wname] + [table[wname].get(lab, "0")
                                       for lab in labels])
            return rows
    if isinstance(result, dict) and "characters" in result:
        chars = result["characters"]
        rows = [["shape"] + chars["cols"]]
        for shape, entries in zip(chars["rows"], chars["entries"]):
            rows.append([str(shape)] + entries)
        return rows
    rows = [["check", "passed", "detail"]]
    for c in report["checks"]:
        rows.append([c["name"], str(c["passed"]).lower(), c["detail"]])
    return rows


def _add_common(p, ring=True):
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    if ring:
        p.add_argument("--ring", help="Q | cyclo:E | laurent | fraction")
        p.add_argument("--spec", help='specialization "xi=V,Q=V1,..,Vr"')


def _add_budget(p):
    p.add_argument("--budget", type=int, default=50_000,
                   help="largest group order to enumerate")


def make_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "table", "csv"),
                        default="json")

    parser = argparse.ArgumentParser(
        prog="cyclohecke",
        description="Exact computations in G(r,1,n) and its cyclotomic "
                    "Hecke algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    for name, fn, needs_word in [
        ("normal-form", cmd_group_normal_form, True),
        ("length", cmd_group_length, True),
        ("reduce", cmd_group_reduce, True),
        ("classes", cmd_group_classes, False),
    ]:
        p = group.add_parser(name, parents=[shared])
        _add_common(p, ring=False)
        if needs_word:
            p.add_argument("--word", required=True,
                           help='generators, e.g. "t s1 s2"')
        if name == "classes":
            _add_budget(p)
        if name == "reduce":
            p.add_argument("--canonical", action="store_true",
                           help="also sort the uncolored part into a partition")
        p.set_defaults(fn=fn)

    hecke = sub.add_parser("hecke").add_subparsers(dest="sub", required=True)
    for name, fn in [
        ("mult", cmd_hecke_mult),
        ("relations", cmd_hecke_relations),
        ("class-polys", cmd_hecke_class_polys),
        ("dual-class-polys", cmd_hecke_dual_class_polys),
        ("center", cmd_hecke_center),
        ("cocenter-rank", cmd_hecke_cocenter_rank),
        ("seminormal", cmd_hecke_seminormal),
    ]:
        p = hecke.add_parser(name, parents=[shared])
        _add_common(p)
        if name == "mult":
            p.add_argument("--x-word", help="left factor as a generator word")
            p.add_argument("--y-word", help="right factor as a generator word")
            p.add_argument("--x", help="left factor as serialized JSON")
            p.add_argument("--y", help="right factor as serialized JSON")
        if name == "relations":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=100)
        if name in ("class-polys", "dual-class-polys"):
            _add_budget(p)
        if name == "class-polys":
            p.add_argument("--word", help="single element; default all")
            p.add_argument("--compare-reps", action="store_true",
                           help="check that every minimal-length element is "
                                "congruent to its class representative "
                                "modulo [H,H]; report those that are not")
        if name == "center":
            p.add_argument("--check-symmetric-jm", action="store_true")
        p.set_defaults(fn=fn)

    klr = sub.add_parser("klr").add_subparsers(dest="sub", required=True)
    p = klr.add_parser("blocks", parents=[shared])
    _add_common(p)
    p.add_argument("--e", type=int, required=True,
                   help="quantum characteristic (>1)")
    p.add_argument("--kappa", required=True, help='e.g. "0,1"')
    p.set_defaults(fn=cmd_klr_blocks)

    p = sub.add_parser("selftest", parents=[shared])
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        result, checks = args.fn(args)
    except (UsageError, ValueError) as exc:
        parser.error(str(exc))       # exits 2
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": f"{args.command}" + (f" {args.sub}"
                                        if getattr(args, "sub", None) else ""),
        "params": {
            k: v for k, v in vars(args).items()
            if k not in ("fn", "command", "sub") and v is not None
        },
        "result": result,
        "checks": [{"name": nm, "passed": bool(ok), "detail": detail}
                   for nm, ok, detail in checks],
    }
    print(render(report, args.format))
    return 0 if all(c["passed"] for c in report["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
