import contextlib
import io
import json

from cyclohecke.cli import main


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


def test_table_format():
    code, out, _ = run_cli(["group", "classes", "--r", "2", "--n", "2",
                            "--format", "table"])
    assert code == 0
    assert out.startswith("command: group classes")
    assert "[PASS]" in out
