"""The three workloads: inputs made from the seed, one operation, checks.

Every run attempts whole rounds of the same operations, so the share of
failed operations is the same in every run.

Inputs come from fixed uniform samples of each family (sampling seed
``BASE_SEED``, drawn with revca's own ``sample_strategy``). ``--seed``
relabels the states of every sampled rule by its own random permutation.
Relabelling conjugates the CA, so the rule stays in its family, keeps
its verdicts and its reachability-tree sizes, and only its text, table and
node values change. A fresh sample per seed would move the per-operation
median of ``large-n`` by about 30% from seed to seed (III-5 rules take
0.03-2.2 s each), which no bound here could hold.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from timing import LOOP_CLOCK, Clock
from revca import (
    ResourceLimitError,
    Rule,
    decide,
    decide_range,
    infinite_injective,
    parse_rule,
    sample_strategy,
)

BASE_SEED = 1502
LARGE_N = 10**6
SWEEP_LO, SWEEP_HI = 3, 12

#: Strategy I 3-state rules reversible at some n in 3..12: at n = 3 only,
#: at n = 5 only, and the shift f(x, y, z) = x at every n. Without them no
#: rule of the sweep would be reversible at a tested n.
SWEEP_REVERSIBLE = (
    "121102211202221102010010020",
    "002000120110122012221211201",
    "011100010100222222222011101",
    "222222222111111111000000000",
)

#: Fault (a): a Strategy I 3-state rule whose frontier never repeats;
#: decide(rule, 10**6) exhausts the default node budget after about 6 s.
LARGE_N_NO_CLOSURE = "101201022020010110212122201"

#: Fault (b): sampling a family larger than 2**63 raises OverflowError.
GEN_OVERFLOW_ARGV = ("gen", "--strategy", "I", "--states", "4", "--sample", "3")


def text_of(rule: Rule) -> str:
    """Canonical rule text, computed here rather than by revca."""
    return "".join(str(v) for v in reversed(rule.table))


def relabel(rule: Rule, perm: list[int]) -> Rule:
    """The conjugate rule: g(p(x), p(y), p(z)) = p(f(x, y, z))."""
    d = rule.d
    table = [0] * d**3
    for r, v in enumerate(rule.table):
        x, y, z = r // (d * d), (r // d) % d, r % d
        table[perm[x] * d * d + perm[y] * d + perm[z]] = perm[v]
    return Rule(d, tuple(table))


def _relabel_all(rules: list[Rule], rng: random.Random) -> list[Rule]:
    return [relabel(r, rng.sample(range(r.d), r.d)) for r in rules]


def shift_rule(d: int, coordinate: int, perm: list[int]) -> Rule:
    """f(x, y, z) = perm of one coordinate: reversible for every n."""
    table = []
    for r in range(d**3):
        cells = (r // (d * d), (r // d) % d, r % d)
        table.append(perm[cells[coordinate]])
    return Rule(d, tuple(table))


@dataclass
class Outcome:
    """What one operation returned, and whether it failed."""

    value: object
    failed: bool
    maxrss_kb: int = 0


class Sweep:
    """decide_range(rule, 3, 12) then infinite_injective(rule) per rule."""

    name = "sweep"
    clock = LOOP_CLOCK

    def __init__(self, seed: int, tracer):
        rng = random.Random(seed)
        with tracer.span("strategies", "sample_strategy"):
            sample = self.sample()
        self.sample_texts = [text_of(r) for r in sample]
        fixed = [parse_rule(t, 3) for t in SWEEP_REVERSIBLE]
        self.round = _relabel_all(sample + fixed, rng)

    @staticmethod
    def sample() -> list[Rule]:
        return sample_strategy("I", 3, 56, BASE_SEED)

    def probe_cases(self):
        return [(r, range(SWEEP_LO, SWEEP_HI + 1)) for r in self.round[:8]]

    def oracle_rule(self) -> Rule:
        return self.round[0]

    def main_argvs(self):
        return [("check", "--states", "3", "--rule", text_of(self.round[0]),
                 "--cells-range", f"{SWEEP_LO}:{SWEEP_HI}", "--format", "json")]

    def run(self, rule: Rule, tracer) -> Outcome:
        try:
            with tracer.span("decider", "decide_range"):
                verdicts = decide_range(rule, SWEEP_LO, SWEEP_HI)
            with tracer.span("infinite", "infinite_injective"):
                inj = infinite_injective(rule)
        except ResourceLimitError as exc:
            return Outcome(exc, True)
        return Outcome((verdicts, inj), False)

    def problems(self, rule: Rule, value) -> list[str]:
        import checks

        verdicts, inj = value
        text = text_of(rule)
        got = {n: v.reversible for n, v in verdicts.items()}
        witness = inj.to_dict()["witness"]
        return checks.verdict_problems(text, 3, got, SWEEP_LO, SWEEP_HI) + checks.injectivity_problems(
            text, 3, inj.injective, witness
        )

    def input_problems(self) -> list[str]:
        import checks

        return checks.gen_problems(self.sample_texts, "I", 3, 56)


class LargeN:
    """decide(rule, 10**6) per rule."""

    name = "large-n"
    clock = LOOP_CLOCK

    def __init__(self, seed: int, tracer):
        rng = random.Random(seed)
        with tracer.span("strategies", "sample_strategy"):
            sample = self.sample()
        self.sample_texts = [text_of(r) for r in sample]
        shifts = [shift_rule(5, c, rng.sample(range(5), 5)) for c in range(3)]
        self.round = _relabel_all(sample, rng) + shifts + [parse_rule(LARGE_N_NO_CLOSURE, 3)]

    @staticmethod
    def sample() -> list[Rule]:
        return sample_strategy("III", 5, 54, BASE_SEED)

    def probe_cases(self):
        return [(r, [LARGE_N]) for r in self.round[:8]]

    def oracle_rule(self) -> Rule:
        return self.round[-1]

    def main_argvs(self):
        return [("check", "--states", "5", "--rule", text_of(self.round[0]), "--cells", str(LARGE_N))]

    def run(self, rule: Rule, tracer) -> Outcome:
        try:
            with tracer.span("decider", "decide"):
                verdict = decide(rule, LARGE_N)
        except ResourceLimitError as exc:
            return Outcome(exc, True)
        return Outcome(verdict, False)

    def problems(self, rule: Rule, value) -> list[str]:
        import checks

        got = {value.n: value.reversible}
        return checks.verdict_problems(text_of(rule), rule.d, got, LARGE_N, LARGE_N)

    def input_problems(self) -> list[str]:
        import checks

        return checks.gen_problems(self.sample_texts, "III", 5, 54)


@dataclass(frozen=True)
class Command:
    """One ``python -m revca`` invocation and what its output must satisfy."""

    kind: str
    argv: tuple[str, ...]
    rule: str = ""
    params: dict = field(default_factory=dict)


def _command_round(rng: random.Random, sample: list[Rule]) -> list[Command]:
    iii = _relabel_all(sample[:14], rng)
    one = _relabel_all(sample[14:], rng)
    cmds = []
    for k in range(7):
        check_rule, range_rule, rule = text_of(iii[k]), text_of(iii[7 + k]), text_of(one[k])
        n = rng.randrange(1000, LARGE_N + 1)
        gen_seed = rng.randrange(10**6)
        config = "".join(str(rng.randrange(3)) for _ in range(12))
        cmds += [
            Command("check", ("check", "--states", "3", "--rule", check_rule, "--cells", str(n)),
                    check_rule, {"n": n}),
            Command("check-range", ("check", "--states", "3", "--rule", range_rule, "--cells-range",
                                    f"{SWEEP_LO}:{SWEEP_HI}", "--format", "json"), range_rule),
            Command("gen-all", ("gen", "--strategy", "III", "--states", "3", "--all"),
                    params={"strategy": "III", "d": 3}),
            Command("gen-sample", ("gen", "--strategy", "I", "--states", "3", "--sample", "20",
                                   "--seed", str(gen_seed)), params={"strategy": "I", "d": 3, "count": 20}),
            Command("oracle", ("oracle", "--states", "3", "--rule", rule, "--cells", "12",
                               "--format", "json"), rule, {"n": 12}),
            Command("infinite", ("infinite", "--states", "3", "--rule", rule, "--format", "json"), rule),
            Command("evolve", ("evolve", "--states", "3", "--rule", rule, "--config", config,
                               "--steps", "20"), rule, {"config": config, "steps": 20}),
            Command("gen-sample", GEN_OVERFLOW_ARGV, params={"strategy": "I", "d": 4, "count": 3}),
        ]
    return cmds


def run_child(argv: list[str], env: dict) -> tuple[int, str, str, int]:
    """Run a child to its end: (exit code, stdout, stderr, peak RSS in KiB).

    Both pipes are drained together, so a child that fills one of them
    cannot block; ``wait4`` gives this child's own peak RSS.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[pipe]).decode() for pipe in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, usage.ru_maxrss


def start_clock(env: dict) -> Clock:
    """Times child processes in units of a bare interpreter start.

    A child's cost is mostly process start, imports and page faults; a
    pure-Python loop in this process does not follow how fast those run,
    and a bare ``python -c pass`` right before and after does.
    """
    return Clock(lambda: run_child([sys.executable, "-c", "pass"], env), brackets=1)


class Cli:
    """``python -m revca ...`` subprocesses, as a user runs them."""

    name = "cli"

    def __init__(self, seed: int, tracer, child_env: dict):
        self.env = child_env
        self.clock = start_clock(child_env)
        with tracer.span("strategies", "sample_strategy"):
            sample = self.sample()
        self.sample_texts = [text_of(r) for r in sample]
        self.round = _command_round(random.Random(seed), sample)

    @staticmethod
    def sample() -> list[Rule]:
        return sample_strategy("III", 3, 14, BASE_SEED) + sample_strategy("I", 3, 7, BASE_SEED)

    def probe_cases(self):
        return [(parse_rule(c.rule, 3), range(SWEEP_LO, SWEEP_HI + 1)) for c in self.round if c.kind == "check-range"]

    def oracle_rule(self) -> Rule:
        return next(parse_rule(c.rule, 3) for c in self.round if c.kind == "oracle")

    def main_argvs(self):
        return [c.argv for c in self.round[:8] if c.argv != GEN_OVERFLOW_ARGV]

    def run(self, cmd: Command, tracer) -> Outcome:
        with tracer.span("cli", cmd.kind):
            code, out, err, rss = run_child([sys.executable, "-m", "revca", *cmd.argv], self.env)
        ok_codes = (0, 1) if cmd.kind.startswith("check") else (0,)
        return Outcome((code, out, err), code not in ok_codes, rss)

    def problems(self, cmd: Command, value) -> list[str]:
        import checks

        code, out, _ = value
        lines = out.splitlines()
        p = cmd.params
        if cmd.kind == "check":
            return checks.check_text_problems(cmd.rule, 3, p["n"], code, out)
        if cmd.kind == "check-range":
            return checks.check_range_problems(cmd.rule, 3, SWEEP_LO, SWEEP_HI, code, out)
        if cmd.kind == "gen-all":
            return checks.gen_problems(lines, p["strategy"], p["d"], checks.family_size(p["strategy"], p["d"]))
        if cmd.kind == "gen-sample":
            return checks.gen_problems(lines, p["strategy"], p["d"], p["count"])
        if cmd.kind in ("oracle", "infinite"):
            try:
                payload = json.loads(out)
            except ValueError:
                return [f"{cmd.kind} {cmd.rule}: output is not JSON"]
            if cmd.kind == "oracle":
                return checks.oracle_problems(cmd.rule, 3, p["n"], payload)
            return checks.injectivity_problems(cmd.rule, 3, payload.get("injective"), payload.get("witness"))
        if cmd.kind == "evolve":
            return checks.evolve_problems(cmd.rule, 3, p["config"], p["steps"], lines)
        return [f"unknown command kind {cmd.kind}"]

    def input_problems(self) -> list[str]:
        import checks

        texts = self.sample_texts
        return checks.gen_problems(texts[:14], "III", 3, 14) + checks.gen_problems(texts[14:], "I", 3, 7)


def make(name: str, seed: int, tracer, child_env: dict):
    if name == "sweep":
        return Sweep(seed, tracer)
    if name == "large-n":
        return LargeN(seed, tracer)
    if name == "cli":
        return Cli(seed, tracer, child_env)
    raise ValueError(f"unknown workload {name!r}")


def child_env(root: Path, base: dict) -> dict:
    """The user's environment, with the checkout's src/ on the import path."""
    env = dict(base)
    env["PYTHONPATH"] = str(root / "src")
    return env
