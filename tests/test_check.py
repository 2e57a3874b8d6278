import json
import os
import subprocess
import sys
from pathlib import Path

import xorgames.check
import xorgames.decider
import xorgames.intlinalg
import xorgames.merp
from xorgames.cli import main

CLOSURE = Path(__file__).resolve().parent / "check_closure.py"


def _drop_last(key):
    def corrupt(cert):
        cert[key].pop()

    return corrupt


def _shift_first_phase(cert):
    cert["phi"][0][0] = "1/2" if cert["phi"][0][0] != "1/2" else "0/1"


# (gen arguments, decide's exit code, a corruption verify must reject): a
# quarter-phase table, a 3-player refutation and a 4-player obstruction.
CASES = {
    "merp": (["-k", "5", "-n", "6", "-m", "24", "--seed", "1"], 0, _shift_first_phase),
    "refutation": (["-k", "3", "-n", "12", "-m", "60", "--seed", "1"], 1, _drop_last("sigma_word")),
    "obstruction": (["-k", "4", "-n", "6", "-m", "24", "--seed", "0"], 2, _drop_last("z")),
}


def test_checker_loads_nothing_of_the_decision_path(tmp_path, capsys):
    argv, expected = [], []
    for kind, (gen_args, code, corrupt) in CASES.items():
        game, cert, bad = (str(tmp_path / f"{kind}{ext}") for ext in (".txt", ".json", "-bad.json"))
        assert main(["gen", *gen_args, "--out", game]) == 0
        assert main(["decide", game, "--out", cert]) == code
        with open(cert, encoding="utf-8") as fh:
            obj = json.load(fh)
        assert obj["type"] == kind
        corrupt(obj)
        with open(bad, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for path in (cert, bad):
            argv += [game, path]
            expected.append("PASS" if main(["verify", game, path]) == 0 else "FAIL")
    capsys.readouterr()
    assert expected == ["PASS", "FAIL"] * len(CASES)
    src = str(Path(xorgames.check.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(CLOSURE), *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


def test_moved_checks_stay_one_function_object():
    # The benchmark's span tracer rebinds one function object under every
    # name that refers to it, so each of these must be the same object.
    assert xorgames.decider.check_obstruction is xorgames.check.check_obstruction
    assert xorgames.intlinalg.congruent_mod2 is xorgames.merp.congruent_mod2
