import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lrm.cli import main
from lrm.graycode import GrayCycle

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_check_illegal_word(capsys):
    code, payload = run_json(capsys, "check", "--t", "3", "--word", "11111")
    assert code == 1
    assert payload["legal"] is False
    assert {"command", "t", "ok"} <= payload.keys()
    assert payload["command"] == "check" and payload["t"] == 3 and payload["ok"] is False


def test_check_legal_word(capsys):
    code, payload = run_json(capsys, "check", "--t", "3", "--word", "02201")
    assert code == 0 and payload["legal"] is True


def test_check_base_word_realizability(capsys):
    code, payload = run_json(capsys, "check", "--t", "3", "--base-word", "1,1,1,1,1")
    assert code == 1 and payload["realizable"] is False
    code, payload = run_json(capsys, "check", "--t", "3", "--base-word", "3,4,6,3,2")
    assert code == 0 and payload["realizable"] is True
    assert payload["witness"] == "1,2,0,3,4"


def test_spectral_reference(capsys):
    code, payload = run_json(capsys, "spectral", "--t", "3", "--pattern", "2,0,1,1")
    assert code == 0
    assert abs(payload["growth_rate"] - 2.9615) < 5e-4
    assert payload["matrix"] == [[2, 1, 0, 0], [1, 1, 1, 0], [1, 1, 0, 1], [1, 1, 0, 0]]


def test_spectral_reducible_matrix_exits_0(capsys):
    # words 1*0* grow polynomially: a reducible matrix with a defective eigenvalue 1
    code, payload = run_json(capsys, "spectral", "--t", "2", "--pattern", "0,1")
    assert code == 0 and payload["ok"] is True and payload["growth_rate"] == 1.0
    code, payload = run_json(capsys, "count", "--t", "2", "--range", "4:5", "--pattern", "0,1")
    assert code == 0 and [r["growth_rate"] for r in payload["reports"]] == [1.0, 1.0]


def test_decode_reference(capsys):
    code, payload = run_json(capsys, "decode", "--t", "3", "--word", "22201")
    assert code == 0
    assert payload["base_word"] == "6,6,6,3,2"
    code, payload = run_json(capsys, "decode", "--t", "3", "--word", "00000")
    assert code == 1 and payload["base_word"] is None and payload["count"] == 0


def test_decode_state_method_agrees(capsys):
    _, by_anchor = run_json(capsys, "decode", "--t", "3", "--word", "02201")
    _, by_state = run_json(capsys, "decode", "--t", "3", "--word", "02201", "--method", "state")
    assert by_anchor["base_words"] == by_state["base_words"]


def test_demodulate_encode_round_trip(capsys):
    code, payload = run_json(capsys, "demodulate", "--t", "3", "--profile", "3,5,2,7,10")
    assert code == 0 and payload["base_word"] == "3,4,6,3,2"
    code, payload = run_json(capsys, "encode", "--t", "3", "--word", "3,4,6,3,2")
    assert code == 0 and payload["codeword"] == "02201"


def test_count_json_and_csv(capsys):
    code, payload = run_json(capsys, "count", "--t", "3", "--n", "6")
    assert code == 0 and payload["legal_count"] == 426
    assert payload["method"] == "automaton"
    code, payload = run_json(capsys, "count", "--t", "3", "--n", "6", "--method", "legality")
    assert code == 0 and payload["legal_count"] == 426 and payload["method"] == "legality"
    code, out = run(capsys, "count", "--t", "3", "--range", "6:7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,n,legal_count,total,density,m_prime,bound_ok,growth_rate"
    assert lines[1].startswith("3,6,426,729,")
    assert len(lines) == 3
    code, out = run(capsys, "count", "--t", "3", "--n", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "t,n,legal_count,total,density,m_prime,bound_ok,growth_rate",
        "3,6,426,729,0.5843621399176955,,,",  # unset fields stay empty
    ]
    # a command without a table has no CSV form
    code, payload = run_json(capsys, "check", "--t", "3", "--word", "02201", "--format", "csv")
    assert code == 2 and payload["ok"] is False and "no CSV form" in payload["error"]


RANGE_6_7 = (
    '{"command": "count", "t": 3, "ok": true, "reports": ['
    '{"t": 3, "n": 6, "legal_count": 426, "total": 729, "density": 0.5843621399176955, '
    '"m_prime": 1, "bound_ok": true, "growth_rate": 2.961499625514947}, '
    '{"t": 3, "n": 7, "legal_count": 1512, "total": 2187, "density": 0.691358024691358, '
    '"m_prime": 6, "bound_ok": true, "growth_rate": 2.961499625514947}]}\n'
)


def test_count_range_output_and_method_conflict(capsys):
    assert run(capsys, "count", "--t", "3", "--range", "6:7") == (0, RANGE_6_7)
    assert run(capsys, "count", "--t", "3", "--range", "6:7", "--method", "auto") == (0, RANGE_6_7)
    # a range picks its engine per length, so an explicit engine is refused
    code, payload = run_json(capsys, "count", "--t", "3", "--range", "6:7", "--method", "rankings")
    assert code == 2 and payload["ok"] is False
    assert "--range" in payload["error"] and "--method rankings" in payload["error"]
    # so is a single length next to a range
    code, payload = run_json(capsys, "count", "--t", "3", "--n", "5", "--range", "6:6")
    assert code == 2 and payload["ok"] is False
    assert "--range" in payload["error"] and "--n 5" in payload["error"]
    # a reversed range and a third bound are refused, not read as empty or as a crash
    for bad in ("9:6", "6:7:8"):
        code, payload = run_json(capsys, "count", "--t", "3", "--range", bad)
        assert code == 2 and payload["ok"] is False and "--range" in payload["error"]


def test_count_one_length_takes_the_pattern_bound(capsys):
    code, payload = run_json(capsys, "count", "--t", "3", "--n", "8", "--pattern", "2,0,1,1")
    assert code == 0
    assert (payload["m_prime"], payload["bound_ok"], payload["growth_rate"]) == (27, True, 2.961499625514947)
    _, ranged = run_json(capsys, "count", "--t", "3", "--range", "8:8", "--pattern", "2,0,1,1")
    assert {k: payload[k] for k in ranged["reports"][0]} == ranged["reports"][0]
    # the reducible avoidance matrix of 0,1 has its rate, on one length as on a range
    code, payload = run_json(capsys, "count", "--t", "2", "--n", "5", "--pattern", "0,1")
    assert code == 0 and payload["growth_rate"] == 1.0


def test_states_listing_and_chase(capsys):
    code, payload = run_json(capsys, "states", "--t", "3")
    assert code == 0
    assert len(payload["complete_states"]) == 2
    counts = sorted(row["count"] for row in payload["tail_table"])
    assert counts == [4, 4, 5, 5]
    code, payload = run_json(capsys, "states", "--t", "3", "--digits", "2,2")
    assert code == 0 and payload["state"] == "([2,1], {(2,2)})"
    code, payload = run_json(
        capsys, "states", "--t", "3", "--digits", "2,2", "--method", "oracle"
    )
    assert payload["state"] == "([2,1], {(2,2)})"
    # a head order that is not a permutation of 1..t-1 is refused by both methods
    for pi in ("1,1", "1", "1,2,3"):
        for method in ("chain", "oracle"):
            code, payload = run_json(capsys, "states", "--t", "3", "--digits", "1,1", "--pi", pi, "--method", method)
            assert code == 2 and payload["ok"] is False and "head order" in payload["error"]


def test_pattern_verdicts(capsys):
    code, payload = run_json(capsys, "pattern", "--t", "3", "--pattern", "2,0,1,1")
    assert code == 0 and payload["forces_complete"] is True
    code, payload = run_json(capsys, "pattern", "--t", "3", "--pattern", "0,1,1")
    assert code == 1 and payload["forces_complete"] is False
    code, payload = run_json(capsys, "pattern", "--t", "3", "--max-len", "4")
    assert code == 0 and payload["count"] == 12 and "2,0,1,1" in payload["patterns"]
    # the factor automaton of 0,1 has a defective eigenvalue; the search never asks for it
    code, payload = run_json(capsys, "pattern", "--t", "2", "--max-len", "3")
    assert code == 0 and payload["count"] == 8 and payload["patterns"][:2] == ["0,0,1", "0,1"]


def test_gray_and_validate(capsys, tmp_path):
    out_file = tmp_path / "cycle.txt"
    code, payload = run_json(capsys, "gray", "--n", "6", "--w", "2", "--out", str(out_file))
    assert code == 0 and payload["length"] == 12 == payload["bound_2n"]
    text = out_file.read_text()
    assert text.splitlines()[0] == "n=6 w=2 len=12"
    code, payload = run_json(capsys, "validate", "--n", "6", "--w", "2", "--file", str(out_file))
    assert code == 0 and payload["valid"] is True
    code, payload = run_json(capsys, "validate", "--n", "3", "--w", "2", "--words", "011,110,101")
    assert code == 1 and payload["reason"] == "adjacency"


def test_gray_weight_four_finishes(capsys):
    code, payload = run_json(capsys, "gray", "--n", "8", "--w", "4")
    assert code == 0 and payload["length"] == 64 and len(payload["cycle"]) == 64


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_gray_search_rejects_a_bad_witness(monkeypatch, capsys):
    script = _load_script("gray_search")
    monkeypatch.setattr(sys, "argv", ["gray_search.py", "--lo", "5", "--hi", "5", "--modes", "adjacent"])
    script.main()
    assert capsys.readouterr().out.splitlines()[1].split() == ["adjacent", "5", "2", "10", "10", "=2n"]
    good = script.longest_cycle(5, 2)[1].words
    reversed_cycle = GrayCycle(words=good[::-1])  # every step runs against its direction
    monkeypatch.setattr(script, "longest_cycle", lambda n, w, mode: (10, reversed_cycle))
    with pytest.raises(SystemExit) as info:
        script.main()
    assert info.value.code == f"adjacent n=5 w=2: witness rejected: adjacency {good[-1]}->{good[-2]}"


def test_domain_errors_exit_2(capsys):
    code, payload = run_json(capsys, "demodulate", "--t", "3", "--profile", "1,1,2,3")
    assert code == 2 and payload["ok"] is False and "error" in payload
    code, payload = run_json(capsys, "encode", "--t", "3", "--word", "1,6,6,3,2")
    assert code == 2
    code, payload = run_json(capsys, "check", "--t", "3")
    assert code == 2
    code, payload = run_json(capsys, "check", "--t", "1", "--word", "000")
    assert code == 2 and payload["ok"] is False and "window size" in payload["error"]
    code, payload = run_json(capsys, "gray", "--n", "0", "--w", "0")
    assert code == 2 and payload["ok"] is False and "n >= 2" in payload["error"]
    for argv in (("--t", "1", "--pattern", "0,0"), ("--t", "1", "--max-len", "3"), ("--t", "0", "--max-len", "3")):
        code, payload = run_json(capsys, "pattern", *argv)
        assert code == 2 and payload["ok"] is False and "t in [2, 5]" in payload["error"]
    # a base word needs one symbol per cell and at least t cells, as a profile does
    for argv in (("encode", "--t", "3", "--word", "1"), ("check", "--t", "3", "--base-word", "2")):
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["ok"] is False and "need at least t = 3 symbols" in payload["error"]
    for argv in (
        ("spectral", "--t", "1", "--pattern", "0"),
        ("spectral", "--t", "9", "--pattern", "0,1"),
        ("spectral", "--t", "0", "--pattern", "0"),
        ("count", "--t", "1", "--n", "3"),
        ("count", "--t", "7", "--range", "7:8"),
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 2 and payload["ok"] is False and "window size must be in [2, 6]" in payload["error"]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["nosuch"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["check", "--t", "3", "--nope"])
    assert info.value.code == 2


def test_console_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "lrm", "spectral", "--t", "3", "--pattern", "2,0,1,1"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_runs_without_numpy():
    # numpy blocked in a fresh interpreter: any import of it, lazy ones included, fails
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import lrm, lrm.cli\n"
        "sys.exit(lrm.cli.main(['spectral', '--t', '3', '--pattern', '2,0,1,1']))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert abs(json.loads(result.stdout)["growth_rate"] - 2.9615) < 5e-4


def test_readme_commands_run(capsys):
    script = _load_script("readme_commands")
    assert len(script.readme_commands()) >= 10
    # every README command's line, exit code and stdout, byte for byte as recorded;
    # after a deliberate change: python3 scripts/readme_commands.py > tests/readme_stdout.txt
    script.main()
    assert capsys.readouterr().out == (TESTS / "readme_stdout.txt").read_text(encoding="utf-8")
