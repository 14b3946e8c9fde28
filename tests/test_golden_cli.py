"""CLI stdout must stay byte-identical to the recorded golden files.

Each file in tests/golden/ is the exact stdout of one command.  After a
deliberate output change, regenerate them with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rsqg.cli as cli

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "wedge_n4_k2": "wedge -n 4 -k 2",
    "wedge_verify_n4_k3_symbolic": "wedge verify -n 4 -k 3 --symbolic",
    "wedge_n3_k3": "wedge -n 3 -k 3",
    "wedge_n3_k4_zero": "wedge -n 3 -k 4",
    "wedge_n3_k2_symbolic": "wedge -n 3 -k 2 --symbolic",
    "wedge_verify_n3_k2_r4_s2": "wedge verify -n 3 -k 2 --r 4 --s 2",
    "wedge_n4_k3_r3_sm1": "wedge -n 4 -k 3 --r 3 --s -1",
    "rep_tensor_n2_k3_symbolic": "rep tensor -n 2 -k 3 --symbolic",
    "rep_check_n3_k1": "rep check -n 3 -k 1",
    "weights_n3_k1": "weights -n 3 -k 1",
    "weights_n3_k3_symbolic": "weights -n 3 -k 3 --symbolic",
    "rmatrix_n3_spectral_symbolic": "rmatrix -n 3 --spectral --symbolic",
    "verify_prop41_n3_symbolic": "verify prop41 -n 3 --symbolic",
    "verify_ybe_n2": "verify ybe -n 2",
    "verify_braid_n2": "verify braid -n 2",
    "verify_minpoly_n2": "verify minpoly -n 2",
    "verify_morphism_n2": "verify morphism -n 2",
    "verify_jimbo_n3": "verify jimbo -n 3",
    "verify_hopf_n3": "verify hopf -n 3",
    "verify_morphism_n3_k3_symbolic": "verify morphism -n 3 -k 3 --symbolic",
}


def _stdout(command):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(command.split())
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(name):
    code, out = _stdout(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command in COMMANDS.items():
        code, out = _stdout(command)
        if code != 0:
            sys.exit(f"{command!r} exited {code}")
        (GOLDEN_DIR / f"{name}.json").write_text(out, encoding="utf-8")
