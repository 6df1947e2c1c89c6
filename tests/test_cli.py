import contextlib
import hashlib
import io
import json
from fractions import Fraction

from cyclohecke.cli import main
from cyclohecke.rings import RingSpec


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
    return code, buf.getvalue(), err.getvalue()


def run_json(argv):
    code, out, _ = run_cli(argv)
    return code, json.loads(out)


def test_group_classes():
    code, rep = run_json(["group", "classes", "--r", "2", "--n", "2"])
    assert code == 0
    assert rep["result"]["count"] == 5
    sizes = [c["size"] for c in rep["result"]["classes"]]
    assert sum(sizes) == 8
    lengths = [c["min_length"] for c in rep["result"]["classes"]]
    assert min(lengths) == 0


def test_group_reduce_certificate():
    code, rep = run_json(["group", "reduce", "--r", "2", "--n", "3",
                          "--word", "s2 s1 t s1 s2 t", "--canonical"])
    assert code == 0
    assert rep["checks"][0]["passed"]
    assert "terminal" in rep["result"]


def test_group_normal_form_and_length():
    code, rep = run_json(["group", "normal-form", "--r", "2", "--n", "2",
                          "--word", "s1 t s1"])
    assert code == 0
    assert rep["result"]["bm"]["a"] == [0, 1]
    code, rep = run_json(["group", "length", "--r", "3", "--n", "2",
                          "--word", "t t"])
    assert code == 0 and rep["result"]["length"] == 2
    # the printed empty word reads back
    code, rep = run_json(["group", "length", "--r", "2", "--n", "2",
                          "--word", "t t"])
    assert code == 0 and rep["result"]["bm_word"] == "e"
    code, rep = run_json(["group", "length", "--r", "2", "--n", "2",
                          "--word", "e"])
    assert code == 0 and rep["result"]["length"] == 0


def test_hecke_center_check():
    code, rep = run_json(["hecke", "center", "--r", "1", "--n", "3",
                          "--spec", "xi=-1,Q=1", "--check-symmetric-jm"])
    assert code == 0
    assert rep["result"]["dim_center"] == 3
    assert rep["result"]["dim_symmetric_jm"] == 3
    assert all(c["passed"] for c in rep["checks"])


def test_hecke_relations_symbolic_default():
    code, rep = run_json(["hecke", "relations", "--r", "2", "--n", "2",
                          "--trials", "10"])
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])


def test_hecke_mult_word_inputs():
    code, rep = run_json(["hecke", "mult", "--r", "2", "--n", "2",
                          "--x-word", "t", "--y-word", "t",
                          "--spec", "xi=2,Q=1,100"])
    assert code == 0
    # T_0^2 = (Q1+Q2) T_0 - Q1 Q2: two basis terms
    assert len(rep["result"]["product"]) == 2


def test_class_polys_csv_and_determinism():
    argv = ["hecke", "class-polys", "--r", "2", "--n", "2",
            "--spec", "xi=2,Q=1,100", "--format", "csv"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.startswith("w,")
    assert len(out1.splitlines()) == 9    # header + |W| rows


def test_class_polys_compare_reps():
    code, rep = run_json(["hecke", "class-polys", "--r", "2", "--n", "2",
                          "--spec", "xi=2,Q=1,100", "--compare-reps"])
    assert code == 0
    assert rep["result"]["representative_dependence"] == {
        "classes_with_alternative_minimal_rep": 1,
        "differences": [],
        "agrees_everywhere": True,
    }


def test_dual_class_polys():
    code, rep = run_json(["hecke", "dual-class-polys", "--r", "3", "--n", "2",
                          "--spec", "xi=2,Q=1,100,10000"])
    assert code == 0
    assert rep["checks"] == [
        {"name": "y_C and z_C are central", "passed": True, "detail": ""}]
    table = rep["result"]["g"]
    assert len(table) == 18                # one row per element of W
    classes = set(table["e"])
    assert len(classes) == 9
    assert all(set(row) == classes for row in table.values())

    def nonzero(row):
        return {c: v for c, v in row.items() if v != "0"}

    assert nonzero(table["e"]) == {"1,1||": "1"}
    # g_{t,C} is f_{t^{-1},beta_hat(C)}: t^{-1} = t t represents 1||1,
    # and beta_hat sends 1|1|, the class of t, to 1||1
    assert nonzero(table["t t"]) == {"1||1": "1"}
    assert nonzero(table["t"]) == {"1|1|": "1"}


def test_class_polys_at_a_non_semisimple_point():
    point = ["--r", "2", "--n", "2", "--spec", "xi=-1,Q=1,-1"]
    code, rep = run_json(["hecke", "class-polys"] + point)
    assert code == 0
    assert rep["checks"] == [
        {"name": "residuals lie in [H,H]", "passed": True, "detail": ""}]
    code, sym = run_json(["hecke", "class-polys", "--r", "2", "--n", "2",
                          "--ring", "fraction"])
    assert code == 0
    ring = RingSpec.fraction(2)
    values = (Fraction(-1), Fraction(1), Fraction(-1))
    table = rep["result"]["f"]
    assert table.keys() == sym["result"]["f"].keys() and len(table) == 8
    for w, row in sym["result"]["f"].items():
        assert {c: ring.parse(v).as_laurent().specialize(values, Fraction(1))
                for c, v in row.items()} == \
            {c: Fraction(v) for c, v in table[w].items()}
    code, rep = run_json(["hecke", "dual-class-polys"] + point)
    assert code == 0
    assert rep["checks"] == [
        {"name": "y_C and z_C are central", "passed": True, "detail": ""}]
    assert len(rep["result"]["g"]) == 8


def test_cocenter_rank():
    code, rep = run_json(["hecke", "cocenter-rank", "--r", "2", "--n", "2",
                          "--spec", "xi=-1,Q=1,-1"])
    assert code == 0
    assert rep["result"]["rank_commutator"] == 3


def test_seminormal_report():
    code, rep = run_json(["hecke", "seminormal", "--r", "2", "--n", "2",
                          "--spec", "xi=2,Q=1,100"])
    assert code == 0
    chars = rep["result"]["characters"]
    assert len(chars["rows"]) == 5 and len(chars["cols"]) == 5


def test_seminormal_failure_exit_code():
    code, out, _ = run_cli(["hecke", "seminormal", "--r", "1", "--n", "2",
                            "--spec", "xi=-1,Q=1"])
    assert code == 1


def test_klr_blocks():
    code, rep = run_json(["klr", "blocks", "--r", "1", "--n", "3",
                          "--spec", "xi=-1,Q=1", "--e", "2", "--kappa", "0"])
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])
    assert sum(b["dimension"] for b in rep["result"]["blocks"]) == 6


def test_usage_errors_exit_2():
    code, _, _ = run_cli(["group", "classes", "--r", "2"])
    assert code == 2
    code, _, _ = run_cli(["hecke", "center", "--r", "2", "--n", "2"])
    assert code == 2   # missing --spec for the rational ring
    code, _, _ = run_cli(["group", "length", "--r", "2", "--n", "2",
                          "--word", "s9"])
    assert code == 2
    for spec in ("xi=1/0,Q=1,2", "xi=2,Q=1,1/0"):
        code, out, err = run_cli(["hecke", "center", "--r", "2", "--n", "2",
                                  "--spec", spec])
        assert code == 2 and not out
        assert "zero denominator" in err and "internal inconsistency" not in err
    mult = ["hecke", "mult", "--r", "2", "--n", "2", "--spec", "xi=2,Q=1,100",
            "--y-word", "t s1", "--x"]
    for x in ('[{"c":[0,3],"w":[1,2],"coeff":"1"}]',
              '[{"c":[5],"w":[1,2],"coeff":"1"}]',
              '[{"c":[0,1],"w":[2,2],"coeff":"1"}]',
              '[{"c":[0,1],"w":[1,2]}]',
              '{"c":[0,1],"w":[1,2],"coeff":"1"}',
              '[{"c":[0,1],"w":[1,2],"coeff":"1/0"}]'):
        code, out, err = run_cli(mult + [x])
        assert code == 2 and not out and "Traceback" not in err
    code, out, err = run_cli(
        ["hecke", "mult", "--r", "2", "--n", "2", "--ring", "fraction",
         "--y-word", "t s1", "--x", '[{"c":[0,1],"w":[1,2],"coeff":"(1)/(0)"}]'])
    assert code == 2 and not out
    assert "zero denominator" in err and "internal inconsistency" not in err
    # the symbolic rings take no specialization
    for ring in ("laurent", "fraction"):
        code, out, err = run_cli(["hecke", "center", "--r", "1", "--n", "2",
                                  "--ring", ring, "--spec", "xi=2,Q=5"])
        assert code == 2 and not out and "--spec" in err


def test_cyclotomic_spec_reduces_negative_exponents():
    code, rep = run_json(["hecke", "center", "--r", "1", "--n", "2",
                          "--ring", "cyclo:3", "--spec", "xi=z^-1,Q=1"])
    assert code == 0
    assert rep["result"]["context"]["xi"] == "-1*z + -1"


def test_klr_weight_errors_exit_2():
    base = ["klr", "blocks", "--r", "1", "--n", "2"]
    for extra in (["--e", "1", "--kappa", "0", "--spec", "xi=-1,Q=1"],
                  ["--e", "2", "--kappa", "0", "--spec", "xi=-1,Q=-1"],
                  ["--e", "2", "--kappa", "0,1", "--spec", "xi=-1,Q=1"]):
        code, out, err = run_cli(base + extra)
        assert code == 2 and not out
        assert "error:" in err and "Traceback" not in err


def test_options_only_where_read():
    code, _, _ = run_cli(["selftest", "--level", "quick", "--seed", "5"])
    assert code == 2
    code, rep = run_json(["group", "length", "--r", "2", "--n", "2",
                          "--word", "t"])
    assert code == 0
    assert not {"seed", "trials", "budget"} & set(rep["params"])


def test_selftest_single_criterion():
    code, rep = run_json(["selftest", "--level", "quick", "--criteria", "5"])
    assert code == 0
    assert all(c["passed"] for c in rep["checks"])


def test_selftest_criteria_match_by_number():
    code, rep = run_json(["selftest", "--level", "quick", "--criteria", "5,7"])
    assert code == 0
    assert [name.split()[0] for name in rep["result"]["criteria"]] == ["5", "7"]
    for bad in ("99", "o", "x", "5,99"):
        code, out, err = run_cli(["selftest", "--level", "quick",
                                  "--criteria", bad])
        assert code == 2 and not out, bad
        assert "unknown criteria" in err


def test_table_format():
    code, out, _ = run_cli(["group", "classes", "--r", "2", "--n", "2",
                            "--format", "table"])
    assert code == 0
    assert out.startswith("command: group classes")
    assert "[PASS]" in out


# sha256 of each report's stdout; a change that alters one of these reports
# on purpose updates its digest and says why in CHANGES.md
RECORDED_DIGESTS = [
    (["group", "classes", "--r", "2", "--n", "3"],
     "f01ce7646eb7f5c5a7eec2761cd88ba1a74d35402c4cde80b3ebad18aeecc70c"),
    (["group", "reduce", "--r", "2", "--n", "3", "--word", "s2 s1 t s1 s2 t",
      "--canonical"],
     "67ab8f37b48a23801aa36eb9d44364e5ba7b7a3520bae2d6d3085260bda5b93b"),
    (["hecke", "mult", "--r", "3", "--n", "3", "--ring", "fraction",
      "--x-word", "t s1 t s2", "--y-word", "s2 t s1 t"],
     "13d6b859ec3d3f92102279c92540baccc49e0754ad97ead9a56852ab6b79116d"),
    (["hecke", "class-polys", "--r", "2", "--n", "2", "--ring", "fraction"],
     "4792a3447aee8b0c23a6b979d929d72f613b8bd6ce290e3b30ff4908e6adb34f"),
    (["hecke", "dual-class-polys", "--r", "2", "--n", "3",
      "--spec", "xi=2,Q=1,100"],
     "8d9414fd794e1154c1a9ea2040957d9f7153d36b2c14c5dbbd46b01c024fc43c"),
    (["hecke", "center", "--r", "2", "--n", "3", "--spec", "xi=-1,Q=1,-1",
      "--check-symmetric-jm"],
     "e29cd18a963c7eccf1ecd1221ee28031fb7abe4de1181a84a94527132c944e78"),
    (["hecke", "cocenter-rank", "--r", "2", "--n", "3",
      "--spec", "xi=-1,Q=1,-1"],
     "5d843b4aff462e41e0e03dc111da5bafd2fa70cc2df9fcc32caf8ac235f178d0"),
    (["hecke", "seminormal", "--r", "2", "--n", "2", "--ring", "fraction"],
     "87640916387721e536588dbb6f47f955a4f63936ce889735110aaf21e844d866"),
    (["hecke", "seminormal", "--r", "2", "--n", "3", "--spec", "xi=2,Q=1,100",
      "--format", "csv"],
     "35c1cb33c4c1aaef7008e3a2b77a403123a7d5268d844112810ea74624273cb3"),
    (["klr", "blocks", "--r", "2", "--n", "2", "--e", "2", "--kappa", "0,1",
      "--spec", "xi=-1,Q=1,-1"],
     "2bf01f7f6b47536ee454eacf213932f6fb822b16f37f8788376a4ad2ad39e37f"),
    (["selftest", "--level", "quick"],
     "5e2ec2e5743a9b227fe779d8110e680d03ba5a66294886c10001dfdd16f56db4"),
]


def test_reports_keep_recorded_digests():
    changed = []
    for argv, digest in RECORDED_DIGESTS:
        code, out, err = run_cli(argv)
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append((" ".join(argv), code, err))
    assert not changed
