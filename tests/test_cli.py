"""Command-line interface: flags, wire formats, exit codes."""

import json
import time

import pytest

from revca import parse_rule
from revca import cli
from revca.cli import main

FIG1_RULE = "201210210201210210201210210"
FIG2_RULE = "201012210201012210201012210"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reversible(capsys):
    code, out, _ = run(
        capsys, "check", "--states", "3",
        "--rule", "000111222000111222000111222", "--cells", "100",
    )
    assert code == 0
    assert "Reversible" in out


def test_check_irreversible_with_witness(capsys):
    code, out, _ = run(
        capsys, "check", "--states", "3", "--rule", FIG2_RULE, "--cells", "4",
    )
    assert code == 1
    assert "Irreversible" in out
    assert "witness" in out


def test_check_range_alternating(capsys):
    code, out, _ = run(
        capsys, "check", "--states", "3",
        "--rule", "102221010102221010102221010", "--cells-range", "3:8",
    )
    assert code == 1  # only some n reversible
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert len(lines) == 6
    for line in lines:
        n = int(line.split(":")[0][2:])
        expect = "Reversible" if n % 2 else "Irreversible"
        assert expect in line


def test_check_json_schema(capsys):
    code, out, _ = run(
        capsys, "check", "--states", "3", "--rule", FIG1_RULE,
        "--cells", "4", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "revca/verdict:1"
    assert record["outcome"] == "reversible"
    assert record["rule"] == FIG1_RULE

    code, out, _ = run(
        capsys, "check", "--states", "3", "--rule", FIG1_RULE,
        "--cells-range", "3:5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "revca/verdict-range:1"
    assert [r["n"] for r in record["results"]] == [3, 4, 5]

    # the schema follows the flag, not the number of cell counts
    code, out, _ = run(
        capsys, "check", "--states", "3", "--rule", FIG1_RULE,
        "--cells-range", "5:5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "revca/verdict-range:1"
    assert [r["n"] for r in record["results"]] == [5]


def test_evolve_trace(capsys):
    code, out, _ = run(
        capsys, "evolve", "--states", "3", "--rule", FIG1_RULE,
        "--config", "1012", "--steps", "1",
    )
    assert code == 0
    assert out.splitlines() == ["0 1012", "1 1200"]


def test_evolve_zero_steps_echoes(capsys):
    code, out, _ = run(
        capsys, "evolve", "--states", "3", "--rule", FIG1_RULE,
        "--config", "1012", "--steps", "0",
    )
    assert code == 0
    assert out.splitlines() == ["0 1012"]


def test_gen_all_strategy_iii(capsys):
    code, out, _ = run(capsys, "gen", "--strategy", "III", "--states", "3", "--all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 222
    # lossless: every emitted string parses back to a 3-state rule
    for line in lines[:10]:
        parse_rule(line, 3)


def test_gen_sample_is_seeded(capsys):
    _, out1, _ = run(
        capsys, "gen", "--strategy", "I", "--states", "3",
        "--sample", "5", "--seed", "9",
    )
    _, out2, _ = run(
        capsys, "gen", "--strategy", "I", "--states", "3",
        "--sample", "5", "--seed", "9",
    )
    assert out1 == out2
    assert len(out1.splitlines()) == 5


def test_gen_sample_beyond_machine_int(capsys):
    code, out, _ = run(capsys, "gen", "--strategy", "I", "--states", "4", "--sample", "3")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_gen_pipes_into_check(capsys):
    _, out, _ = run(capsys, "gen", "--strategy", "II", "--states", "2", "--all")
    rules = out.splitlines()
    assert len(rules) == 16
    for text in rules:
        code, _, _ = run(capsys, "check", "--states", "2", "--rule", text, "--cells", "4")
        assert code in (0, 1)


def test_oracle_output(capsys):
    code, out, _ = run(
        capsys, "oracle", "--states", "3", "--rule", FIG1_RULE, "--cells", "4",
    )
    assert code == 0
    assert "bijective: yes" in out
    assert "image=81/81" in out
    code, out, _ = run(
        capsys, "oracle", "--states", "3", "--rule", FIG1_RULE,
        "--cells", "4", "--format", "json",
    )
    record = json.loads(out)
    assert record["bijective"] is True


def test_infinite_output(capsys):
    code, out, _ = run(capsys, "infinite", "--states", "3", "--rule", FIG1_RULE)
    assert code == 0
    assert "injective: yes" in out
    code, out, _ = run(
        capsys, "infinite", "--states", "3",
        "--rule", "102221010102221010102221010", "--format", "json",
    )
    record = json.loads(out)
    assert record["injective"] is False
    assert record["witness"]["pairs"]
    code, out, _ = run(capsys, "infinite", "--states", "3", "--rule", "102221010102221010102221010")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "injective: no"
    assert lines[1].startswith("  witness cycle: ")
    assert lines[2].startswith("  outputs: ")


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "--states", "2", "--rule", "11001100")
    assert code == 0
    assert out.count("->") == 8
    assert '"010/1"' in out


def test_usage_errors_exit_2(capsys):
    code, _, err = run(
        capsys, "check", "--states", "3", "--rule", "201", "--cells", "4",
    )
    assert code == 2
    assert "error" in err
    code, _, err = run(
        capsys, "evolve", "--states", "2", "--rule", "11001100",
        "--config", "0102", "--steps", "1",
    )
    assert code == 2
    code, out, err = run(
        capsys, "evolve", "--states", "3", "--rule", FIG1_RULE,
        "--config", "0,-1,2", "--steps", "1",
    )
    assert code == 2
    assert out == ""
    assert "position 1" in err
    for spelling in (["--cells-range", "-3:4"], ["--cells-range=-3:4"], ["--cells-r", "-3:4"]):
        code, out, err = run(
            capsys, "check", "--states", "3", "--rule", FIG1_RULE, *spelling,
        )
        assert (code, out) == (2, "")
        assert err == "error: need 3 <= n_lo <= n_hi, got -3..4\n"
    code, out, err = run(
        capsys, "evolve", "--states", "2", "--rule", "11001100",
        "--config", "0101", "--steps", "-1",
    )
    assert (code, out) == (2, "")
    assert err == "error: steps must be >= 0\n"
    with pytest.raises(SystemExit) as exc:
        main(["check", "--states", "3", "--rule", FIG1_RULE, "--cells-range", "5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "expected LO:HI, got '5'" in err


@pytest.mark.parametrize("digit", ["\u0661", "\uff11", "\u00b2"])
def test_non_ascii_digits_are_usage_errors(capsys, digit):
    code, out, err = run(
        capsys, "check", "--states", "2", "--rule", "1100110" + digit, "--cells", "4",
    )
    assert (code, out) == (2, "")
    assert "position 7" in err
    code, out, err = run(
        capsys, "evolve", "--states", "2", "--rule", "11001100",
        "--config", "01" + digit, "--steps", "1",
    )
    assert (code, out) == (2, "")
    assert "position 2" in err
    # integer options are read by argparse, which exits 2 itself
    with pytest.raises(SystemExit) as exc:
        main(["check", "--states", "2", "--rule", "11001100", "--cells-range", "3:1" + digit])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "--cells-range" in err


def test_resource_errors_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("REVCA_ORACLE_BUDGET", "100")
    code, _, err = run(
        capsys, "oracle", "--states", "3", "--rule", FIG1_RULE, "--cells", "12",
    )
    assert code == 3
    assert "resource" in err


@pytest.mark.parametrize("d, cells", [(3, 10_000), (6, 3_000_000)])
def test_oracle_giant_ring_is_budget_error(capsys, d, cells):
    # d**cells has more digits than int-to-str conversion allows, and takes
    # seconds to compute at d = 6; the budget is decided without it
    start = time.perf_counter()
    code, out, err = run(
        capsys, "oracle", "--states", str(d), "--rule", "0" * d ** 3, "--cells", str(cells),
    )
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert f"{d}^{cells} configurations" in err


@pytest.mark.parametrize(
    "exc, code, line",
    [
        (MemoryError("Unable to allocate 4.33 PiB"), 3, "resource limit: out of memory: Unable to allocate 4.33 PiB"),
        (RuntimeError("boom\nsecond line"), 4, "internal error: RuntimeError: boom second line"),
    ],
)
def test_crashes_never_exit_1(capsys, monkeypatch, exc, code, line):
    def crash(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "oracle", crash)
    got, out, err = run(capsys, *ORACLE_ARGS)
    assert got == code
    assert out == ""
    assert err == line + "\n"


CHECK_ARGS = ("check", "--states", "3", "--rule", "000111222000111222000111222", "--cells", "10")
ORACLE_ARGS = ("oracle", "--states", "3", "--rule", FIG1_RULE, "--cells", "4")
# rejected at the root, after the budget is read
UNBALANCED_ARGS = ("check", "--states", "3", "--rule", "0" * 26 + "1")


@pytest.mark.parametrize(
    "env, value, argv",
    [
        ("REVCA_NODE_BUDGET", "-5", CHECK_ARGS),
        ("REVCA_NODE_BUDGET", "0", CHECK_ARGS),
        ("REVCA_NODE_BUDGET", "abc", CHECK_ARGS),
        ("REVCA_ORACLE_BUDGET", "-1", ORACLE_ARGS),
        ("REVCA_NODE_BUDGET", "abc", (*UNBALANCED_ARGS, "--cells", "5")),
        ("REVCA_NODE_BUDGET", "abc", (*UNBALANCED_ARGS, "--cells-range", "5:5")),
    ],
)
def test_bad_budget_env_is_usage_error(capsys, monkeypatch, env, value, argv):
    monkeypatch.setenv(env, value)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert env in err and value in err


@pytest.mark.parametrize("env, argv", [("REVCA_NODE_BUDGET", CHECK_ARGS), ("REVCA_ORACLE_BUDGET", ORACLE_ARGS)])
@pytest.mark.parametrize("value", ["1_0", "\uff11\uff10", "1\u0660"])
def test_budget_env_takes_ascii_digits_only(capsys, monkeypatch, env, argv, value):
    # int() reads all three as 10
    monkeypatch.setenv(env, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert env in err and value in err
    # surrounding whitespace is fine
    monkeypatch.setenv(env, " 100000 ")
    assert run(capsys, *argv)[0] == 0


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError


@pytest.mark.parametrize("rule, code", [("01101001", 1), ("11110000", 0)])
def test_check_keeps_its_verdict_under_a_closed_pipe(monkeypatch, rule, code):
    # as `revca check ... | head -1` under pipefail
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(["check", "--states", "2", "--rule", rule, "--cells-range", "3:40"]) == code


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--states", "3"])  # missing required --rule
    assert exc.value.code == 2
