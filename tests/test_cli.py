import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fdzeros import (
    InvalidInput,
    cli,
    from_roots,
    gn,
    operator_to_json,
    operators,
    poly_to_json,
    random_strip_operator,
    rootfind,
    witness_search,
)
from fdzeros.cli import main

PRESERVER = {"lambda": [0, 1], "terms": [{"j": -1, "a": [1, 0]},
                                         {"j": 1, "a": [1, 0]}]}
REAL_SHIFT = {"lambda": [1, 0], "terms": [{"j": 0, "a": [1, 0]},
                                          {"j": 1, "a": [1, 0]}]}
X2_MINUS_1 = {"coeffs": [[-1, 0], [0, 0], [1, 0]]}
X2_PLUS_1 = {"coeffs": [[1, 0], [0, 0], [1, 0]]}


def write(tmp_path, name, obj):
    f = tmp_path / name
    f.write_text(json.dumps(obj))
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_zeros(capsys):
    code, out = run(capsys, ["zeros", "--n", "2", "--theta", "1.5707963",
                             "--h", "1"])
    assert code == 0
    d = json.loads(out)
    assert sorted(d["zeros"]) == pytest.approx([-1, 1], abs=1e-6)
    assert max(d["residuals"]) < 1e-10


def test_zeros_theta_pi_degenerate(capsys):
    code, out = run(capsys, ["zeros", "--n", "4", "--theta-pi", "1"])
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 3
    assert sorted(d["zeros"]) == pytest.approx([-1, 0, 1], abs=1e-12)


def test_analyze(tmp_path, capsys):
    code, out = run(capsys, ["analyze", write(tmp_path, "op.json", PRESERVER)])
    assert code == 0
    d = json.loads(out)
    assert d["hyperbolicity_preserver"] is True


def test_apply(tmp_path, capsys):
    code, out = run(capsys, [
        "apply", write(tmp_path, "op.json", PRESERVER),
        write(tmp_path, "p.json", {"coeffs": [[0, 0], [0, 0], [1, 0]]}),
    ])
    assert code == 0
    d = json.loads(out)
    assert d["image"]["coeffs"] == [[-2, 0], [0, 0], [2, 0]]
    assert sorted(r[0] for r in d["roots"]["roots"]) == pytest.approx([-1, 1])


def test_tb(tmp_path, capsys):
    code, out = run(capsys, ["tb", write(tmp_path, "p.json", X2_PLUS_1),
                             "--theta-pi", "0.5", "--h", "5"])
    assert code == 0
    d = json.loads(out)
    got = sorted(r[0] for r in d["roots"]["roots"])
    assert got == pytest.approx([-math.sqrt(24), math.sqrt(24)], abs=1e-9)


def test_mesh(tmp_path, capsys):
    code, out = run(capsys, ["mesh", write(tmp_path, "p.json", X2_MINUS_1)])
    assert code == 0
    assert float(out) == pytest.approx(2.0)


def test_walsh_and_apolar(tmp_path, capsys):
    p = write(tmp_path, "p.json", X2_MINUS_1)
    code, out = run(capsys, ["walsh", p, p, "--frame", "2"])
    assert code == 0
    json.loads(out)
    code, out = run(capsys, ["apolar", p, p, "--frame", "2"])
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"apolar", "sum_magnitude", "term_scale"}
    # above deg P + deg Q every term vanishes; the frame sets no work
    huge = ["--frame", "1000000000"]
    assert run(capsys, ["walsh", p, p, *huge]) == (0, '{"coeffs": []}\n')
    assert json.loads(run(capsys, ["apolar", p, p, *huge])[1]) == {
        "apolar": True, "sum_magnitude": 0.0, "term_scale": 0.0}


def test_overflowing_walsh_and_apolar_exit_2_without_numpy_warnings(tmp_path):
    # in a fresh interpreter that shows every warning: apolar printed a numpy
    # RuntimeWarning and then "Out of range float values are not JSON
    # compliant", walsh two RuntimeWarnings before its own message.  In frame
    # 340 P [+] Q of two degree-170 operands is the constant
    # 170! (170! 100), which overflows; the zero P^(k)(0), k > 170, take no
    # part, so no 0 * inf adds two NaN coefficients
    ones = write(tmp_path, "ones.json", {"coeffs": [[1, 0]] * 171})
    big = write(tmp_path, "big.json", {"coeffs": [[100, 0]] * 171})
    one = write(tmp_path, "one.json", {"coeffs": [[1, 0]]})
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for argv, message in (
        (["apolar", big, one, "--frame", "170"],
         "sum (-1)^k P^(k)(0) Q^(n-k)(0) in frame 170 overflows a double"),
        (["walsh", ones, big, "--frame", "340"],
         "P [+] Q in frame 340 overflows a double: 1 of 1 coefficients are not finite"),
    ):
        done = subprocess.run([sys.executable, "-W", "always", "-m", "fdzeros.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_asymptotics_csv(tmp_path, capsys):
    code, out = run(capsys, [
        "asymptotics", write(tmp_path, "p.json", X2_PLUS_1),
        "--theta-pi", "0.5", "--h-min", "10", "--h-max", "40",
        "--steps", "3", "--order", "1", "--summary",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,j,actual,predicted,residual,residual_h2"
    summary = json.loads(lines[-1])
    assert summary["omega_bound_ok"] is True


@pytest.mark.parametrize("order", ["0", "1", "2"])
def test_asymptotics_summary_writes_null_for_an_undefined_fit(tmp_path, capsys, order):
    # (x - 1)^2: every residual is below the fit's 1e-13 relative floor, so
    # fitted_decay is NaN; the command printed the CSV and then exited 2 on
    # "Out of range float values are not JSON compliant"
    code, out = run(capsys, [
        "asymptotics", write(tmp_path, "p.json", {"coeffs": [[1, 0], [-2, 0], [1, 0]]}),
        "--theta", "0.9", "--h-min", "40", "--h-max", "400", "--steps", "6",
        "--order", order, "--summary",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 6 * 2 + 1  # header, two roots per h, summary
    summary = json.loads(lines[-1])
    assert summary["fitted_decay"] is None
    assert summary["order"] == int(order) and summary["steps"] == 6


def test_witness_found(tmp_path, capsys):
    code, out = run(capsys, ["witness", write(tmp_path, "op.json", REAL_SHIFT)])
    assert code == 0
    d = json.loads(out)
    assert d["status"] == "witness"
    assert d["witness"]["offense"] == pytest.approx(0.5, abs=1e-8)


def test_witness_preserver(tmp_path, capsys):
    code, out = run(capsys, ["witness", write(tmp_path, "op.json", PRESERVER)])
    assert code == 0
    assert json.loads(out)["status"] == "preserver"


def test_witness_settled_by_conditions_1_to_3(tmp_path, capsys, monkeypatch):
    # e^{i phi} times a preserver: nothing to find on the real line, and a
    # strip preserver against a strip; neither builds a candidate
    op = operator_to_json(random_strip_operator(2, np.random.default_rng([7, 2])))
    path = write(tmp_path, "op.json", op)

    def forbidden(*args, **kwargs):
        raise AssertionError("a witness candidate was built or root-found")

    certified_many = rootfind._certified_many
    allowed = operators.generating_fn(cli.operator_from_json(op)).poly

    def generating_polynomial_only(items):
        # analyze root-finds the generating polynomial; nothing else may be
        if [getattr(x, "coeffs", None) for x in items] != [allowed.coeffs]:
            forbidden()
        return certified_many(items)

    monkeypatch.setattr(operators, "apply_op", forbidden)
    monkeypatch.setattr(operators, "_certified_many", forbidden)
    monkeypatch.setattr(rootfind, "_certified_many", generating_polynomial_only)
    assert run(capsys, ["witness", path]) == (
        0, '{"status": "inconclusive", "witness": null}\n')
    assert run(capsys, ["witness", path, "--strip", "1.0"]) == (
        0, '{"status": "preserver", "witness": null}\n')


@pytest.mark.parametrize("max_degree", [0, -3])
def test_witness_rejects_max_degree_below_1(tmp_path, capsys, max_degree):
    # a search over no candidate used to print "inconclusive" and exit 0
    with pytest.raises(InvalidInput, match="max degree"):
        witness_search(cli.operator_from_json(REAL_SHIFT), max_degree=max_degree)
    code = main(["witness", write(tmp_path, "op.json", REAL_SHIFT),
                 "--max-degree", str(max_degree)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: max degree must be >= 1")


def test_witness_rejects_negative_strip(tmp_path, capsys):
    # with a band of -1 the real root 0.5 of x + (x - 1) used to be reported
    # as a witness with offense 1.0
    with pytest.raises(InvalidInput, match="strip half-width"):
        witness_search(cli.operator_from_json(REAL_SHIFT), strip_b=-1.0)
    code = main(["witness", write(tmp_path, "op.json", REAL_SHIFT), "--strip", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: strip half-width must be finite and >= 0")


def test_witness_analyzes_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = operators.analyze

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze", counted)
    monkeypatch.setattr(operators, "analyze", counted)
    code, out = run(capsys, ["witness", write(tmp_path, "op.json", REAL_SHIFT)])
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    want = witness_search(cli.operator_from_json(REAL_SHIFT))
    assert json.loads(out) == {"status": "witness",
                               "witness": cli.witness_to_json(want)}


def test_witness_rejects_negative_tol(tmp_path, capsys):
    # with tol = -1 conditions 1, 3 and 4 failed, and the preserver's image of x
    # was printed as the witness x^1 with offense 0.0
    code = main(["witness", write(tmp_path, "op.json", PRESERVER), "--tol", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: tolerance must be finite and >= 0")


def test_import_builds_no_parser():
    # in a fresh interpreter: this one may have built the parser already
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import fdzeros.cli\n"
        "print(len(built), fdzeros.cli._parser.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0 0\n"


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # in a fresh interpreter, as `fdzeros analyze op.json` starts
    op = write(tmp_path, "op.json", PRESERVER)
    script = (
        "import contextlib, io, sys\n"
        "from fdzeros.cli import main\n"
        "def loaded():\n"
        "    return ' '.join(sorted(k for k in sys.modules if k.split('.')[0] == 'fdzeros'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['analyze', sys.argv[1]]), main(['witness', sys.argv[1]])]\n"
        "print(codes, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['zeros', '--n', '8', '--theta-pi', '0.5'])]\n"
        "print(codes, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify', '--trials', '1'])]\n"
        "print(codes, 'fdzeros.harness' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script, op], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == ("[0, 0] fdzeros fdzeros.cli fdzeros.errors fdzeros.operators "
                      "fdzeros.poly fdzeros.rootfind")
    assert out[1] == ("[0] fdzeros fdzeros.cli fdzeros.debruijn fdzeros.errors "
                      "fdzeros.operators fdzeros.poly fdzeros.rootfind")
    assert out[2] == "[0] True"


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        op = write(tmp_path, "op.json", PRESERVER)
        for argv in (["analyze", op], ["witness", op], ["analyze", op],
                     ["zeros", "--n", "2", "--theta-pi", "0.5"]):
            assert run(capsys, argv)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    rotated = write(tmp_path, "rot.json", operator_to_json(
        random_strip_operator(2, np.random.default_rng([7, 2]))))
    pre = write(tmp_path, "op.json", PRESERVER)
    p = write(tmp_path, "p.json", X2_PLUS_1)
    sequence = [
        ["witness", rotated, "--strip", "1.0"], ["witness", rotated],
        ["analyze", pre, "--tol", "1e-6"], ["analyze", pre],
        ["tb", p, "--theta", "0.5", "--h", "2"], ["tb", p, "--theta-pi", "0.5", "--h", "2"],
        ["tb", p, "--theta", "0.5", "--theta-pi", "0.5", "--h", "2"],
        ["tb", p, "--theta-pi", "0.25", "--h", "2"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [outcome(argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0]
    assert [json.loads(shared[k][1])["status"] for k in (0, 1)] == [
        "preserver", "inconclusive"]
    assert [json.loads(shared[k][1])["tol"] for k in (2, 3)] == [1e-6, 1e-8]
    assert "not allowed with argument" in shared[6][2]


def test_verify(capsys):
    code, out = run(capsys, ["verify", "--trials", "1", "--seed", "42"])
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert all(p["trials"] == 1 for p in d["properties"])
    assert d["config"] == {"seed": 42, "trials": 1, "degree_max": 8,
                           "root_range": [-5.0, 5.0], "tol_real": 1e-7,
                           "tol_identity": 1e-10}


def test_verify_rejects_bad_config_naming_the_field(capsys):
    # SuiteConfig rejects a negative seed before numpy sees it, so the message
    # names the field and not numpy's "expected non-negative integer"
    assert main(["verify", "--trials", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: seed must be >= 0\n")


def test_verify_has_no_degree_max_option(capsys):
    # the draws' degree ceiling is fixed; the config block still reports it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "1", "--degree-max", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree-max 8" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(X2_MINUS_1)))
    code, out = run(capsys, ["mesh", "-"])
    assert code == 0
    assert float(out) == pytest.approx(2.0)


def test_exit_2_on_bad_json(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("not json")
    assert main(["mesh", str(f)]) == 2


def test_exit_2_names_offending_field(tmp_path, capsys):
    f = write(tmp_path, "op.json",
              {"lambda": [0, 1], "terms": [{"j": 0, "a": [1]}]})
    code = main(["analyze", f])
    err = capsys.readouterr().err
    assert code == 2
    assert "terms[0].a" in err


def test_exit_2_on_constant_mesh(tmp_path, capsys):
    assert main(["mesh", write(tmp_path, "c.json", {"coeffs": [[3, 0]]})]) == 2


def test_exit_2_on_missing_file(capsys):
    assert main(["mesh", "/nonexistent/path.json"]) == 2


def test_seventeen_digit_output(tmp_path, capsys):
    code, out = run(capsys, ["mesh", write(tmp_path, "p.json", {
        "coeffs": [[-2, 0], [1, 0], [1, 0]]})])  # roots 1 and -2
    assert code == 0
    # full precision: value round-trips to the exact double
    assert float(out.strip()) == 3.0000000000000004 or float(out.strip()) == 3.0


def test_emit_numpy_scalars_and_rejects_non_finite(capsys):
    cli._emit({"b": np.bool_(True), "i": np.int64(3), "x": np.float64(0.1)})
    assert json.loads(capsys.readouterr().out) == {"b": True, "i": 3, "x": 0.1}
    with pytest.raises(ValueError):  # main turns this into exit code 2
        cli._emit({"roots": [[float("nan"), 0.0]]})


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("option, argv", [
    ("--theta", ["zeros", "--n", "3", "--theta", "{}"]),
    ("--theta-pi", ["zeros", "--n", "3", "--theta-pi", "{}"]),
    ("--h", ["zeros", "--n", "3", "--theta", "0.5", "--h", "{}"]),
    ("--h-min", ["asymptotics", "p.json", "--theta", "0.7", "--h-min", "{}",
                 "--h-max", "500", "--steps", "3"]),
    ("--h-max", ["asymptotics", "p.json", "--theta", "0.7", "--h-min", "20",
                 "--h-max", "{}", "--steps", "3"]),
    ("--strip", ["witness", "op.json", "--strip", "{}"]),
    ("--tol", ["mesh", "p.json", "--tol", "{}"]),
])
def test_exit_2_on_non_finite_option(capsys, option, argv, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main([a.format(value) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}" in captured.err and "must be finite" in captured.err
    assert "Warning" not in captured.err and captured.out == ""


def test_overflowing_zeros_exit_2_without_warnings(capsys):
    # h^3 overflows double; the RuntimeWarning filter turns any numpy
    # warning on the way into an error
    code = main(["zeros", "--n", "3", "--theta", "0.5", "--h", "1e300"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_overflowing_zeros_names_the_overflow(capsys):
    # G_3 at h = 1e200 has non-finite coefficients; the error was only the
    # emitter's "Out of range float values are not JSON compliant"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["zeros", "--n", "3", "--theta", "0.7", "--h", "1e200"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: T_{theta,h}(P) overflows a double: 2 of 4 " \
                           "coefficients are not finite\n"


def test_overflowing_tb_exit_2_without_warnings(tmp_path, capsys):
    # the image's NaN coefficients reached the root finder, whose
    # certificate failed them (exit 3); the overflow is now invalid input
    p = write(tmp_path, "p.json", {"coeffs": [[1, 0], [2, 0], [0.5, 0], [1, 0]]})
    code = main(["tb", p, "--theta", "0.5", "--h", "1e200"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: T_{theta,h}(P) overflows a double") \
        and len(err.splitlines()) == 1


def test_walsh_overflow_exits_2(tmp_path, capsys):
    # P [+] G_160 overflows a double in 133 of its 161 coefficients; the
    # error named the overflow only as "Out of range float values are not
    # JSON compliant", from the emitter
    p = write(tmp_path, "p.json", poly_to_json(from_roots(np.linspace(-1, 1, 160))))
    g = write(tmp_path, "g.json", poly_to_json(gn(160, 0.7, 1.0)))
    code = main(["walsh", p, g, "--frame", "160"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: P [+] Q in frame 160 overflows a double: 133 of 161 " \
                           "coefficients are not finite\n"


@pytest.mark.parametrize("command", ["walsh", "apolar"])
def test_walsh_above_degree_170_exits_2(tmp_path, capsys, command):
    # 171! overflows a double: this used to end in a bare OverflowError
    # traceback and exit 1, the code of a failed suite
    p = write(tmp_path, "p.json", poly_to_json(from_roots(np.linspace(-1, 1, 180))))
    code = main([command, p, p, "--frame", "180"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: deg P = 180 exceeds 170, the largest k whose k! is " \
                           "a finite double\n"


@pytest.mark.parametrize("argv", [
    ["zeros", "--n", "3"],
    ["tb", "p.json", "--h", "1"],
    ["asymptotics", "p.json", "--h-min", "20", "--h-max", "500", "--steps", "3"],
])
def test_missing_theta_exits_2_from_argparse(capsys, argv):
    # argparse's required group stops the command before any file is read
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"fdzeros {argv[0]}: error: one of the arguments --theta --theta-pi is required")
