"""Self-tests of the benchmark's output checks: each accepts the program's
real output and rejects a corrupted copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402

import rsqg  # noqa: E402

PTS = [(Fraction(13, 17), Fraction(29, 11)), (Fraction(41, 23), Fraction(19, 37))]
SPECTRAL = [(Fraction(2, 3), Fraction(5, 7)), (Fraction(7, 2), Fraction(3, 11))]


def cli_json(*argv):
    res = workloads.cli_op(list(argv), None).call()
    assert res.rc == 0, res.stderr
    return json.loads(res.stdout)


def rejects(check, *args):
    with pytest.raises(CheckFailed):
        check(*args)


def test_eval_scalar_reads_the_printed_format():
    r, s = Fraction(2), Fraction(5)
    assert oracles.eval_scalar("(-r + s)/(s)", r, s) == Fraction(3, 5)
    assert oracles.eval_scalar("1/2*r^2*s - 3", r, s) == Fraction(7)
    assert oracles.eval_scalar("-7/3", r, s) == Fraction(-7, 3)
    with pytest.raises(ZeroDivisionError):
        oracles.eval_scalar("(1)/(r - 2)", r, s)


def test_spectral_pair_rejects_a_flipped_sign():
    obj = cli_json("rmatrix", "-n", "3", "--spectral", "--symbolic")
    oracles.check_spectral_json(obj, 3, PTS, SPECTRAL)
    for key in ("A", "B"):
        bad = copy.deepcopy(obj)
        entry = bad[key]["entries"][1]
        entry[2] = f"-({entry[2]})"
        rejects(oracles.check_spectral_json, bad, 3, PTS, SPECTRAL)


def test_ybe_and_minimal_polynomial_reject_wrong_matrices():
    r, s = PTS[0]
    A, B = oracles.spectral_pair(2, r, s)
    oracles.check_ybe(A, B, 2, SPECTRAL)
    oracles.check_min_poly(A, r, s)
    # R(2z) in place of R(z) is still A + zB-shaped but breaks Yang-Baxter
    rejects(oracles.check_ybe, A, [[2 * x for x in row] for row in B], 2, SPECTRAL)
    scaled = [list(row) for row in A]
    scaled[0][0] = Fraction(2)
    rejects(oracles.check_min_poly, scaled, r, s)


def test_r_at_z_rejects_a_perturbed_entry():
    obj = cli_json("rmatrix", "-n", "3", "-z", "5/7", "--symbolic")
    oracles.check_r_at_json(obj, 3, "5/7", PTS)
    bad = copy.deepcopy(obj)
    bad["entries"][0][2] += " + 1"
    rejects(oracles.check_r_at_json, bad, 3, "5/7", PTS)
    rejects(oracles.check_r_at_json, obj, 3, "4/7", PTS)


def test_tensor_power_rejects_a_perturbed_column():
    obj = cli_json("rep", "tensor", "-n", "3", "-k", "3", "--r", "5", "--s", "1/7")
    oracles.check_tensor_rep_json(obj, 3, 3, Fraction(5), Fraction(1, 7))
    for name in ("e2", "f1", "wp2_inv"):
        bad = copy.deepcopy(obj)
        entry = bad["generators"][name]["entries"][-1]
        entry[2] = str(2 * Fraction(entry[2]))
        rejects(oracles.check_tensor_rep_json, bad, 3, 3, Fraction(5), Fraction(1, 7))
    # the same output does not pass for other parameters
    rejects(oracles.check_tensor_rep_json, obj, 3, 3, Fraction(5), Fraction(7))


def test_weights_reject_a_wrong_multiplicity():
    obj = cli_json("weights", "-n", "3", "-k", "4")
    oracles.check_weights_json(obj, 3, 4)
    bad = copy.deepcopy(obj)
    bad["weights"][3]["dim"] += 1
    rejects(oracles.check_weights_json, bad, 3, 4)
    bad = copy.deepcopy(obj)
    bad["weights"].reverse()
    rejects(oracles.check_weights_json, bad, 3, 4)


def test_wedge_rejects_labels_out_of_order_and_wrong_matrices():
    obj = cli_json("wedge", "-n", "5", "-k", "2")
    oracles.check_wedge_json(obj, 5, 2, Fraction(2), Fraction(3))
    bad = copy.deepcopy(obj)
    bad["labels"][1], bad["labels"][2] = bad["labels"][2], bad["labels"][1]
    rejects(oracles.check_wedge_json, bad, 5, 2, Fraction(2), Fraction(3))
    for name in ("e3", "w1", "wp4_inv"):
        bad = copy.deepcopy(obj)
        bad["generators"][name]["entries"][0][2] = "3/2"
        rejects(oracles.check_wedge_json, bad, 5, 2, Fraction(2), Fraction(3))


def test_straightening_rejects_a_negated_coefficient():
    field = rsqg.SampledField(2, 3)
    mod = rsqg.build_wedge_module(4, 3, field)
    tuples = [(3, 1, 2), (2, 2, 4), (4, 3, 1), (1, 2, 4)]
    res = [(t, mod.straighten(t)) for t in tuples]
    oracles.check_straighten(res, Fraction(3))
    tup, coeffs = res[0]
    bad = [(tup, {lab: -c for lab, c in coeffs.items()})] + res[1:]
    rejects(oracles.check_straighten, bad, Fraction(3))
    bad = [(tup, {}), *res[1:]]
    rejects(oracles.check_straighten, bad, Fraction(3))


def test_reports_reject_a_failing_or_missing_row():
    obj = cli_json("rep", "check", "-n", "3", "-k", "2")
    rows = oracles.relation_rows(3)
    oracles.check_report_json(obj, "relations", 3, rows, "sampled", k=2)
    bad = copy.deepcopy(obj)
    bad["checks"][5]["ok"] = False
    rejects(oracles.check_report_json, bad, "relations", 3, rows, "sampled", 2)
    bad = copy.deepcopy(obj)
    del bad["checks"][-1]
    rejects(oracles.check_report_json, bad, "relations", 3, rows, "sampled", 2)
    obj = cli_json("wedge", "verify", "-n", "4", "-k", "2")
    oracles.check_report_json(obj, "fundamental", 4, oracles.fundamental_rows(4, 2),
                              "sampled", k=2)
    rejects(oracles.check_report_json, obj, "fundamental", 4,
            oracles.fundamental_rows(4, 3), "sampled", 2)


def test_verdict_rejects_a_false_verdict():
    obj = cli_json("verify", "ybe", "-n", "2", "--symbolic")
    oracles.check_verdict_json(obj, "ybe", 2, "symbolic")
    rejects(oracles.check_verdict_json, dict(obj, ok=False), "ybe", 2, "symbolic")


def _eliminate_ops(seed=3):
    return {op.label.split(" at ")[0].split(" #")[0]: op
            for op in workloads.build("eliminate", seed)}


def test_inverse_check_rejects_a_wrong_entry():
    op = _eliminate_ops()["invert R(z) n=2"]
    inv = op.call()
    op.check(inv)
    F = rsqg.SymbolicField()
    for key in ((1, 1), (2, 3)):
        bad = rsqg.Matrix(inv.rows, inv.cols, dict(inv.entries))
        bad.entries[key] = bad.entries.get(key, F.zero) + F.r
        rejects(op.check, bad)


def test_kernel_image_check_rejects_wrong_kernel_image_and_rank():
    op = _eliminate_ops()["kernel_image_rank random singular 3x3 degree-1"]
    kernel, image, rank = op.call()
    op.check((kernel, image, rank))
    F = rsqg.SymbolicField()
    vec = dict(kernel.basis[0])
    t = next(iter(vec))
    vec[t] = vec[t] + F.one
    bad_kernel = rsqg.Subspace(kernel.ambient_dim, [vec], kernel.pivots)
    rejects(op.check, (bad_kernel, image, rank))
    bad_image = rsqg.Subspace(image.ambient_dim, image.basis[:1], image.pivots[:1])
    rejects(op.check, (kernel, bad_image, rank))
    rejects(op.check, (kernel, image, rank + 1))


def test_wedge_dimension_check_rejects_a_wrong_dimension():
    op = next(op for op in workloads.build("wedge", 1)
              if op.label.startswith("wedge_dimension"))
    dims = [math.comb(n, k) for n, k in workloads.WEDGE_SWEEP]
    op.check(dims)
    rejects(op.check, dims[:-1] + [dims[-1] + 1])


def test_known_fault_operations_count_as_failed():
    ops = workloads.build("tensor", 1)
    fault = [op for op in ops if "weights -n 3 -k 2" in op.label]
    assert len(fault) == 3
    for op in fault:
        out = op.call()
        if op.failed(out):
            assert "w'-eigenvalues" in out.stderr
        else:  # once the fault is mended the output must be right
            op.check(out)


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert ([op.label for op in workloads.build(name, 7)]
                == [op.label for op in workloads.build(name, 7)])
    assert ([op.label for op in workloads.build("tensor", 7)]
            != [op.label for op in workloads.build("tensor", 8)])
