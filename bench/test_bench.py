"""Tests of the benchmark's reference verdicts and output checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from revca import decide_range, infinite_injective, oracle_is_reversible, parse_rule, sample_strategy  # noqa: E402

import workloads  # noqa: E402

TWO_STATE = [format(code, "08b") for code in range(256)]


def test_pair_graph_matches_brute_force_on_all_two_state_rules():
    mismatches = []
    for text in TWO_STATE:
        table = reference.table_of(text, 2)
        ranged = reference.ring_injective_range(table, 2, 3, 10)
        for n in range(3, 11):
            brute = reference.brute_image(table, 2, n)[0] == 2**n
            if not brute == ranged[n] == reference.ring_injective(table, 2, n):
                mismatches.append((text, n))
    assert mismatches == []


def test_lattice_injective_exactly_for_the_six_two_state_shifts():
    # f = x, y or z, or its complement
    want = {"11110000", "00001111", "11001100", "00110011", "10101010", "01010101"}
    got = {t for t in TWO_STATE if reference.lattice_injective(reference.table_of(t, 2), 2)}
    assert got == want


def test_pair_graph_at_large_n_matches_small_period():
    # f = complement of x is reversible at every n; the balanced rule
    # 10010110 (x xor y xor z) is reversible exactly when 3 does not divide n.
    assert reference.ring_injective(reference.table_of("00001111", 2), 2, 10**6)
    xor3 = reference.table_of("10010110", 2)
    assert reference.ring_injective(xor3, 2, 10**6 + 1)
    assert not reference.ring_injective(xor3, 2, 999_999)


def test_relabel_keeps_family_and_verdicts():
    rng = random.Random(5)
    for strategy, d in (("I", 3), ("III", 3), ("III", 5)):
        for rule in sample_strategy(strategy, d, 4, 11):
            perm = rng.sample(range(d), d)
            text = workloads.text_of(workloads.relabel(rule, perm))
            assert checks.strategy_problem(text, strategy, d) is None
            before = reference.ring_injective_range(reference.table_of(workloads.text_of(rule), d), d, 3, 8)
            after = reference.ring_injective_range(reference.table_of(text, d), d, 3, 8)
            assert before == after


RULE = "121102211202221102010010020"  # Strategy I, reversible at n = 3 only


def test_verdict_check_rejects_a_flipped_verdict():
    got = {n: v.reversible for n, v in decide_range(parse_rule(RULE, 3), 3, 12).items()}
    assert checks.verdict_problems(RULE, 3, got, 3, 12) == []
    flipped = {**got, 3: not got[3]}
    assert checks.verdict_problems(RULE, 3, flipped, 3, 12)
    want = reference.ring_injective(reference.table_of(RULE, 3), 3, 10**6)
    assert checks.verdict_problems(RULE, 3, {10**6: not want}, 10**6, 10**6)


def test_injectivity_check_rejects_flips_and_corrupted_witnesses():
    result = infinite_injective(parse_rule(RULE, 3)).to_dict()
    assert not result["injective"]
    w = result["witness"]
    assert checks.injectivity_problems(RULE, 3, False, w) == []
    assert checks.injectivity_problems(RULE, 3, True, None)
    bad_output = dict(w, outputs=[(w["outputs"][0] + 1) % 3] + w["outputs"][1:])
    assert checks.injectivity_problems(RULE, 3, False, bad_output)
    same_paths = dict(w, right_rmts=w["left_rmts"])
    assert checks.injectivity_problems(RULE, 3, False, same_paths)
    broken_path = dict(w, left_rmts=[(w["left_rmts"][0] + 1) % 27] + w["left_rmts"][1:])
    assert checks.injectivity_problems(RULE, 3, False, broken_path)


def _corrupt(line: str) -> str:
    return ("1" if line[0] == "0" else "0") + line[1:]


@pytest.mark.parametrize("strategy,d", [("I", 3), ("III", 3), ("III", 5)])
def test_gen_check_rejects_corrupted_lines(strategy, d):
    lines = [workloads.text_of(r) for r in sample_strategy(strategy, d, 6, 3)]
    assert checks.gen_problems(lines, strategy, d, 6) == []
    assert checks.gen_problems([_corrupt(lines[0])] + lines[1:], strategy, d, 6)
    assert checks.gen_problems(lines[:5] + lines[:1], strategy, d, 6)
    assert checks.gen_problems(lines[:5], strategy, d, 6)


def test_oracle_check_rejects_a_wrong_image_size():
    payload = oracle_is_reversible(parse_rule(RULE, 3), 6).to_dict()
    assert checks.oracle_problems(RULE, 3, 6, payload) == []
    assert checks.oracle_problems(RULE, 3, 6, dict(payload, image_size=payload["image_size"] + 1))
    assert checks.oracle_problems(RULE, 3, 6, dict(payload, bijective=not payload["bijective"]))


def test_evolve_check_rejects_a_corrupted_line():
    table = reference.table_of(RULE, 3)
    cells = (1, 0, 2, 2, 0, 1)
    lines = ["0 102201"]
    for t in range(1, 4):
        cells = reference.step(table, 3, cells)
        lines.append(f"{t} {''.join(map(str, cells))}")
    assert checks.evolve_problems(RULE, 3, "102201", 3, lines) == []
    assert checks.evolve_problems(RULE, 3, "102201", 3, lines[:2] + [lines[2][:2] + _corrupt(lines[2][2:])] + lines[3:])


def test_cli_check_outputs_reject_flips():
    assert checks.check_text_problems(RULE, 3, 3, 0, "n=3: Reversible\n") == []
    assert checks.check_text_problems(RULE, 3, 3, 1, "n=3: Irreversible\n")
    assert checks.check_text_problems(RULE, 3, 3, 1, "n=3: Reversible\n")
    records = [v.to_dict() for v in decide_range(parse_rule(RULE, 3), 3, 12).values()]
    payload = {"schema": "revca/verdict-range:1", "results": records}
    assert checks.check_range_problems(RULE, 3, 3, 12, 1, json.dumps(payload)) == []
    records[0] = dict(records[0], outcome="irreversible")
    assert checks.check_range_problems(RULE, 3, 3, 12, 1, json.dumps(payload))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
