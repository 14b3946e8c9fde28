import json

import pytest

import rsqg.cli as cli
from rsqg import CheckItem, CheckReport, Matrix

from helpers import corrupt_ambient_generator


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected an option value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main parses with one cached parser; a run of subcommands through it,
    # an invalid choice and a malformed rational among them, gives what a
    # fresh parser gives for each
    assert cli.build_parser() is cli.build_parser()
    runs = [("rep", "natural", "-n", "2"), ("verify", "nope", "-n", "2"),
            ("rmatrix", "-n", "2", "-z", "-2/7"), ("verify", "ybe", "-n", "2"),
            ("rep", "natural", "-n", "2", "--r", "x"),
            ("wedge", "verify", "-n", "3", "-k", "2", "--symbolic"),
            ("weights", "-n", "2", "-k", "2"), ("verify", "ybe", "-n", "1")]
    cached = [run_cli(capsys, *argv) for argv in runs]
    assert [c[0] for c in cached] == [0, 2, 0, 0, 2, 0, 0, 2]
    assert "invalid choice: 'nope'" in cached[1][2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert [run_cli(capsys, *argv) for argv in runs] == cached


def test_rep_natural_json(capsys):
    code, out, err = run_cli(capsys, "rep", "natural", "-n", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["n"] == 2 and data["dim"] == 2
    assert data["generators"]["w1"]["entries"] == [[1, 1, "2"], [2, 2, "3"]]


def test_rep_natural_symbolic(capsys):
    code, out, _ = run_cli(capsys, "rep", "natural", "-n", "2", "--symbolic")
    assert code == 0
    data = json.loads(out)
    assert data["generators"]["w1"]["entries"] == [[1, 1, "r"], [2, 2, "s"]]


def test_genericity_violation_exits_2(capsys):
    code, out, err = run_cli(capsys, "rep", "natural", "-n", "2",
                             "--r", "2", "--s", "2")
    assert code == 2
    assert out == ""
    assert "r = s violates genericity" in err


@pytest.mark.parametrize("command", [
    ("rep", "natural"), ("rep", "tensor"), ("rep", "check"), ("rmatrix",),
    *(("verify", what) for what in cli._VERIFY), ("wedge",),
    ("wedge", "verify"), ("weights",)], ids="-".join)
def test_invalid_rank_exits_2(capsys, command):
    # rejected once, before any command runs, whatever the command does
    # with n = 1 on its own
    code, out, err = run_cli(capsys, *command, "-n", "1")
    assert (code, out) == (2, "")
    assert "rank parameter n must be at least 2" in err


def test_bad_rational_exits_2(capsys):
    code, _, err = run_cli(capsys, "rep", "natural", "-n", "2", "--r", "x")
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("argv", [("rep", "natural", "-n", "2", "--r", "1/0"),
                                  ("rep", "natural", "-n", "2", "--s", "3/0"),
                                  ("rmatrix", "-n", "2", "-z", "1/0")])
def test_zero_denominator_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"invalid rational '{argv[-1]}'" in err


def test_negative_slash_rational_values(capsys):
    # "-2/7" must reach the option as its value, not parse as an option
    for argv in (("rmatrix", "-n", "2", "-z"), ("rep", "natural", "-n", "2",
                                                "--r")):
        code, out, err = run_cli(capsys, *argv, "-2/7")
        assert code == 0 and err == ""
        joined = run_cli(capsys, *argv[:-1], argv[-1] + "=-2/7")
        assert joined == (0, out, "")
    # so must a negative rational in exponent form, for every such option
    for opt, value in (("-z", "-1e3"), ("--r", "-1e3"), ("--s", "-2.5e-1")):
        argv = ("rmatrix", "-n", "2", opt)
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 0 and err == "" and out
        assert run_cli(capsys, *argv[:-1], f"{opt}={value}") == (0, out, "")
    # an option name after -z stays an option, so -z lacks its value
    code, out, _ = run_cli(capsys, "rmatrix", "-n", "2", "-z", "--symbolic")
    assert code == 2 and out == ""


def test_rep_tensor_and_check(capsys):
    code, out, _ = run_cli(capsys, "rep", "tensor", "-n", "2", "-k", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 4
    code, out, _ = run_cli(capsys, "rep", "check", "-n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(row["ok"] for row in data["checks"])


def test_rmatrix_constant_and_spectral(capsys):
    code, out, _ = run_cli(capsys, "rmatrix", "-n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == 4
    assert [1, 1, "1"] in data["entries"]
    code, out, _ = run_cli(capsys, "rmatrix", "-n", "2", "--spectral")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"n", "A", "B"}
    code, out, _ = run_cli(capsys, "rmatrix", "-n", "2", "-z", "2/3",
                           "--r", "3", "--s", "5")
    assert code == 0
    data = json.loads(out)
    assert data["rows"] == 4


def test_rmatrix_spectral_rejects_z(capsys):
    # the pair (A, B) has no point to evaluate at; -z was dropped unseen
    code, out, err = run_cli(capsys, "rmatrix", "-n", "2", "--spectral",
                             "-z", "3")
    assert (code, out) == (2, "")
    assert "rmatrix takes --spectral or -z, not both" in err


def test_rmatrix_z_evaluation_consistent(capsys):
    # R(0) must equal the constant R
    _, const_out, _ = run_cli(capsys, "rmatrix", "-n", "3")
    _, z0_out, _ = run_cli(capsys, "rmatrix", "-n", "3", "-z", "0")
    assert const_out == z0_out


def test_verify_commands_pass(capsys):
    for what, extra in (("ybe", []), ("braid", []), ("minpoly", []),
                        ("morphism", ["-k", "2"]), ("hopf", []),
                        ("jimbo", []), ("prop41", [])):
        code, out, _ = run_cli(capsys, "verify", what, "-n", "2", *extra)
        assert code == 0, what
        data = json.loads(out)
        assert data["ok"] is True
        assert data["check"] == what


@pytest.mark.parametrize("what", ["ybe", "braid", "minpoly", "hopf", "jimbo",
                                  "prop41"])
def test_verify_rejects_k_except_morphism(capsys, what):
    code, out, err = run_cli(capsys, "verify", what, "-n", "2", "-k", "-5")
    assert (code, out) == (2, "")
    assert f"verify {what} takes no -k" in err


def test_verify_morphism_k_defaults_to_2(capsys):
    assert run_cli(capsys, "verify", "morphism", "-n", "2") == \
        run_cli(capsys, "verify", "morphism", "-n", "2", "-k", "2")


@pytest.mark.parametrize("k", ["0", "1"])
def test_verify_morphism_k_below_2_exits_2(capsys, k):
    code, out, err = run_cli(capsys, "verify", "morphism", "-n", "2", "-k", k)
    assert (code, out) == (2, "")
    assert "needs k >= 2" in err


@pytest.mark.parametrize("extra", [("--r", "5"), ("--s", "7"),
                                   ("--symbolic", "--s", "7"),
                                   ("--r", "2", "--s", "2")])
def test_verify_jimbo_rejects_sampled_options(capsys, extra):
    code, out, err = run_cli(capsys, "verify", "jimbo", "-n", "3", *extra)
    assert (code, out) == (2, "")
    assert "verify jimbo runs in Q(r, s); it takes no --r or --s" in err


def test_verify_jimbo_accepts_symbolic_mode(capsys):
    plain = run_cli(capsys, "verify", "jimbo", "-n", "2")
    assert json.loads(plain[1])["mode"] == "symbolic"
    assert run_cli(capsys, "verify", "jimbo", "-n", "2", "--symbolic") == plain


@pytest.mark.parametrize("argv", [
    ("verify", "minpoly", "-n", "2", "--symbolic", "--r", "2", "--s", "2"),
    ("rep", "natural", "-n", "2", "--symbolic", "--r", "5"),
    ("wedge", "-n", "3", "-k", "2", "--symbolic", "--s", "7")])
def test_symbolic_rejects_sampled_values(capsys, argv):
    # Q(r, s) has no sampled values; ignoring them hid r = s in the first
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--symbolic runs in Q(r, s); it takes no --r or --s" in err


@pytest.mark.parametrize("extra", [("--mode", "symbolic", "--r", "5"),
                                   ("--symbolic", "--mode", "sampled"),
                                   ("--mode", "sampled")])
def test_mode_option_is_gone(capsys, extra):
    code, out, err = run_cli(capsys, "rep", "natural", "-n", "2", *extra)
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --mode" in err


def test_verify_minpoly_example(capsys):
    code, out, _ = run_cli(capsys, "verify", "minpoly", "-n", "3",
                           "--r", "2", "--s", "3")
    assert code == 0
    assert json.loads(out)["mode"] == "sampled"


def test_verify_failure_exits_1(capsys, monkeypatch):
    failed = CheckReport([CheckItem("ybe", (1, 2), False)])
    monkeypatch.setattr(cli, "check_ybe_spectral", lambda rz: failed)
    code, out, _ = run_cli(capsys, "verify", "ybe", "-n", "2")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert "checks" not in data  # the R checks print only their verdict


def test_verify_report_failure_exits_1(capsys, monkeypatch):
    import rsqg.uqrs as uqrs_mod

    class FakeReport:
        ok = False

        def to_json(self):
            return [{"relation": "antipode:e", "indices": [1], "ok": False}]

    monkeypatch.setattr(cli, "hopf_antipode_check", lambda rep: FakeReport())
    code, out, _ = run_cli(capsys, "verify", "hopf", "-n", "2")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False and data["checks"][0]["ok"] is False


def test_wedge_well_definedness_failure_exits_3(capsys, monkeypatch):
    # e1 sends v2 x v1 to v1 x v2, which breaks the quotient
    corrupt_ambient_generator(monkeypatch, "e1", (2, 1), (1, 2))
    code, out, err = run_cli(capsys, "wedge", "-n", "2", "-k", "2")
    assert code == 3
    assert out == ""
    assert "e1" in err and "(2, 1)" in err


def test_r_matrix_route_mismatch_exits_3(capsys, monkeypatch):
    # the direct route writes R(z) entry by entry and scales no matrix,
    # so a faulty Matrix.scale corrupts only the other two routes
    real = Matrix.scale
    monkeypatch.setattr(Matrix, "scale", lambda self, c: real(self, c + c))
    code, out, err = run_cli(capsys, "verify", "ybe", "-n", "2")
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_wedge_build_and_verify(capsys):
    code, out, _ = run_cli(capsys, "wedge", "-n", "3", "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    assert data["labels"] == [[1, 2], [1, 3], [2, 3]]
    code, out, _ = run_cli(capsys, "wedge", "verify", "-n", "3", "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["check"] == "fundamental" and data["ok"] is True


def test_wedge_verify_out_of_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "wedge", "verify", "-n", "2", "-k", "3")
    assert code == 2
    assert "1 <= k <= n" in err


@pytest.mark.parametrize("argv", [("weights", "-n", "3", "-k", "0"),
                                  ("weights", "-n", "3", "-k", "-2"),
                                  ("rep", "check", "-n", "3", "-k", "0"),
                                  ("rep", "tensor", "-n", "3", "-k", "0")])
def test_tensor_power_below_one_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "tensor power k must be at least 1" in err


def test_weights_output(capsys):
    code, out, _ = run_cli(capsys, "weights", "-n", "2", "-k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 4
    assert data["weights"] == [{"weight": [2, 0], "dim": 1},
                               {"weight": [1, 1], "dim": 2},
                               {"weight": [0, 2], "dim": 1}]


def test_weights_at_dependent_parameters(capsys):
    # r and s multiplicatively dependent: r = s^2, s = r^2, rs = 1, r = 1
    rows = [{"weight": w, "dim": d} for w, d in
            (([2, 0, 0], 1), ([1, 1, 0], 2), ([1, 0, 1], 2), ([0, 2, 0], 1),
             ([0, 1, 1], 2), ([0, 0, 2], 1))]
    for r, s in (("2", "4"), ("4", "2"), ("2", "1/2"), ("1", "-3")):
        code, out, err = run_cli(capsys, "weights", "-n", "3", "-k", "2",
                                 "--r", r, "--s", s)
        assert (code, err) == (0, ""), (r, s, err)
        assert json.loads(out)["weights"] == rows


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "wedge", "-n", "3", "-k", "2")
        runs.append(out)
    assert runs[0] == runs[1]
    for _ in range(2):
        _, out, _ = run_cli(capsys, "rmatrix", "-n", "3", "--spectral",
                            "--symbolic")
        runs.append(out)
    assert runs[2] == runs[3]


def test_output_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "rmatrix", "-n", "2", "-o", str(path))
    assert code == 0
    assert out == ""
    data = json.loads(path.read_text())
    assert data["rows"] == 4
    assert path.read_text().endswith("}\n")


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "rep", "natural", "-n", "2", "-o",
                             str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err


def test_no_trailing_whitespace(capsys):
    _, out, _ = run_cli(capsys, "verify", "braid", "-n", "2")
    for line in out.splitlines():
        assert line == line.rstrip()
    assert out.endswith("\n") and not out.endswith("\n\n")
