"""Command-line front end.

Exit codes: 0 success (for ``check``: reversible for every requested cell
count), 1 irreversible, 2 usage or parse error, 3 resource budget
exceeded or out of memory, 4 internal error (an unexpected exception,
reported in one line). All randomness sits behind an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Sequence

from .decider import decide, decide_range
from .errors import _SIGNED_INT, ResourceLimitError, as_integer
from .evolution import (
    export_dot,
    format_configuration,
    parse_configuration,
    step,
)
from .infinite import infinite_injective
from .oracle import oracle_is_reversible
from .rules import format_rule, parse_rule
from .strategies import STRATEGIES, enumerate_strategy, sample_strategy

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4


def _integer(text: str) -> int:
    """An integer written in ASCII digits (``errors._SIGNED_INT``)."""
    if not _SIGNED_INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cells_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return _integer(lo), _integer(hi)


def _command(sub, name: str, run, help: str, rule: bool = True) -> argparse.ArgumentParser:
    """Register ``name``, run as ``run(args, rule)``; a rule command takes --states/--rule."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    if rule:
        p.add_argument("--states", type=_integer, required=True, help="states per cell (d)")
        p.add_argument("--rule", required=True, help="rule string, next state of RMT 0 rightmost")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revca",
        description="Reversibility analysis of d-state cellular automata on rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "check", _cmd_check, "decide reversibility for one or many cell counts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cells", type=_integer, help="ring size n")
    group.add_argument("--cells-range", type=_cells_range, help="inclusive range LO:HI")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = _command(sub, "evolve", _cmd_evolve, "print a configuration trace")
    p.add_argument("--config", required=True, help="initial configuration digits")
    p.add_argument("--steps", type=_integer, required=True)

    p = _command(sub, "gen", _cmd_gen, "emit a strategy family, one rule per line", rule=False)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--states", type=_integer, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="stream the whole family")
    group.add_argument("--sample", type=_integer, metavar="N", help="sample N rules")
    p.add_argument("--seed", type=_integer, default=0, help="sampling seed")

    p = _command(sub, "oracle", _cmd_oracle, "brute-force global map summary")
    p.add_argument("--cells", type=_integer, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = _command(sub, "infinite", _cmd_infinite, "injectivity on the unbounded lattice")
    p.add_argument("--format", choices=("text", "json"), default="text")

    _command(sub, "dot", _cmd_dot, "emit the rule's de Bruijn graph as DOT")
    return parser


def _emit(args, record: dict, lines: list[str]) -> int:
    """Print ``record`` as one JSON line under ``--format json``, else ``lines``."""
    print(json.dumps(record) if args.format == "json" else "\n".join(lines))
    return 0


def _cmd_check(args, rule) -> int:
    if args.cells is not None:
        verdicts = {args.cells: decide(rule, args.cells)}
    else:
        verdicts = decide_range(rule, *args.cells_range)
    # the verdict, not how much of it a reader took, sets the exit code
    code = 0 if all(v.reversible for v in verdicts.values()) else 1
    try:
        if args.format == "json":
            records = [v.to_dict() for v in verdicts.values()]
            if args.cells is not None:
                print(json.dumps(records[0]))
            else:
                print(json.dumps({"schema": "revca/verdict-range:1", "results": records}))
        else:
            for n, v in sorted(verdicts.items()):
                print(f"n={n}: {'Reversible' if v.reversible else 'Irreversible'}")
                if v.witness is not None:
                    print(f"  witness: {v.witness.detail}")
    except BrokenPipeError:
        pass
    return code


def _cmd_evolve(args, rule) -> int:
    steps = as_integer(args.steps, "steps", 0)
    cells = parse_configuration(args.config, args.states)
    print(f"0 {format_configuration(cells)}")
    for t in range(1, steps + 1):
        cells = step(rule, cells)
        print(f"{t} {format_configuration(cells)}")
    return 0


def _cmd_gen(args, _rule) -> int:
    if args.all:
        rules = enumerate_strategy(args.strategy, args.states)
    else:
        rules = sample_strategy(args.strategy, args.states, args.sample, args.seed)
    for rule in rules:
        print(format_rule(rule))
    return 0


def _cmd_oracle(args, rule) -> int:
    summary = oracle_is_reversible(rule, args.cells)
    return _emit(args, summary.to_dict(), [
        f"bijective: {'yes' if summary.bijective else 'no'}  "
        f"image={summary.image_size}/{args.states ** args.cells}  "
        f"max_indegree={summary.max_indegree}"
    ])


def _cmd_infinite(args, rule) -> int:
    result = infinite_injective(rule)
    lines = [f"injective: {'yes' if result.injective else 'no'}"]
    if result.witness is not None:
        pairs = " ".join(f"{a}{b}|{c}{e}" for (a, b), (c, e) in result.witness.pairs)
        outputs = "".join(map(str, result.witness.outputs))
        lines += [f"  witness cycle: {pairs}", f"  outputs: {outputs}"]
    return _emit(args, result.to_dict(), lines)


def _cmd_dot(args, rule) -> int:
    sys.stdout.write(export_dot(rule))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-3:4" for an option; bound with "=" to
    # --cells-range or an abbreviation of it, it reaches decide_range
    for i, arg in reversed(list(enumerate(argv[:-1]))):
        if len(arg) > len("--cells") and "--cells-range".startswith(arg) and ":" in argv[i + 1]:
            argv[i : i + 2] = [f"--cells-range={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one stderr line, never an error or a traceback
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            rule = parse_rule(args.rule, args.states) if "rule" in args else None
            return args.run(args, rule)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except ResourceLimitError as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            return RESOURCE_ERROR
        except MemoryError as exc:
            print(f"resource limit: out of memory: {exc}", file=sys.stderr)
            return RESOURCE_ERROR
        except BrokenPipeError:
            return 0
        except Exception as exc:
            message = " ".join(str(exc).splitlines())
            print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
            return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
