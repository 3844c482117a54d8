import json
import math
import warnings

import numpy as np
import pytest

from fdzeros import cli
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


def test_verify(capsys):
    code, out = run(capsys, ["verify", "--trials", "1", "--seed", "42"])
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True
    assert all(p["trials"] == 1 for p in d["properties"])


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
