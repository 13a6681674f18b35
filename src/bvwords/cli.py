"""Command-line interface.

Words are written as whitespace-separated tokens ``<family><index>['] ``
where the family is one of ``l``, ``s``, ``v``, ``p``, ``pb`` and a
trailing apostrophe marks the inverse letter, e.g. ``pb3' v0 p2``.

Commands:

    normalize --group {F,Vhat,BVhat} WORD     canonical fraction data
    lmr WORD                                  left-middle-right form
    trivial --group GROUP WORD                word-problem verdict
    equal --group GROUP WORD1 -- WORD2        same group element?
    verify --bound N [--family ID]            check the relation tables
    selftest --samples K --seed S ...         decider cross-agreement

Exit codes: 0 true/success, 1 false/failure, 2 usage or parse error,
3 step cap exceeded, 4 internal error (a fault in the package).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from typing import Sequence

from .braid import braid_to_word, is_trivial_braid, word_to_braid
from .bv_lmr import BVMode, LMRForm, is_trivial_bv, to_third_form
from .hatgroups import GroupMode, canonicalize_hat, is_trivial_hat
from .limits import Budget, StepLimitExceeded
from .perms import from_sigma_word
from .presentations import FAMILIES, verify_all
from .thompson_f import f_fraction, is_trivial_f
from .words import (
    AlphabetError,
    Family,
    Gen,
    Word,
    expand_bv_generators,
    invert,
    random_word,
)

_TOKEN = re.compile(r"^(pb|l|s|v|p)([0-9]+)(')?$")
_FAMILY_BY_CODE = {f.value: f for f in Family}

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    """A command-line option has a value the command cannot run with."""


class WordSyntaxError(ValueError):
    def __init__(self, token: str, position: int):
        super().__init__(f"bad token {token!r} at position {position}")
        self.token = token
        self.position = position


def parse_word(text: str) -> Word:
    """Parse a token string; positions in errors are 1-based."""
    out = []
    for position, token in enumerate(text.split(), start=1):
        m = _TOKEN.match(token)
        if m is None:
            raise WordSyntaxError(token, position)
        family, index, mark = m.groups()
        try:
            index = int(index)
        except ValueError:  # more digits than Python converts
            raise WordSyntaxError(token, position) from None
        out.append(Gen(_FAMILY_BY_CODE[family], index, -1 if mark else 1))
    return tuple(out)


def format_word(w: Word) -> str:
    return " ".join(g.token() for g in w)


_HAT_MODES = {"Vhat": GroupMode.VHAT, "BVhat": GroupMode.BVHAT}
_BV_MODES = {"V": BVMode.V, "BV": BVMode.BV}
ALL_GROUPS = ("F", "Vhat", "BVhat", "V", "BV", "Sinf", "Binf")


def decide_trivial(group: str, w: Word, budget: Budget) -> bool:
    if group == "F":
        return is_trivial_f(w, budget)
    if group in _HAT_MODES:
        return is_trivial_hat(w, _HAT_MODES[group], budget)
    if group in _BV_MODES:
        return is_trivial_bv(w, _BV_MODES[group], budget)
    if group == "Sinf":
        return from_sigma_word(w).is_identity()
    if group == "Binf":
        return is_trivial_braid(word_to_braid(w), budget)
    raise ValueError(f"unknown group {group!r}")


def _emit(args: argparse.Namespace, record: dict, human: str) -> None:
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(args.max_steps) if args.max_steps is not None else Budget()


def _check_options(args: argparse.Namespace) -> None:
    """Reject option values before any work, so that a ``ValueError``
    raised later is a fault of the package, not of the input."""
    if args.max_steps is not None and args.max_steps <= 0:
        raise UsageError("step limit must be positive")
    if args.command == "verify":
        if args.bound < 0:
            raise UsageError("bound must be nonnegative")
        if args.family is not None and args.family not in FAMILIES:
            raise UsageError(f"unknown relation family {args.family!r}")
    if args.command == "selftest" and min(args.samples, args.max_index, args.max_len) < 0:
        raise UsageError("--samples, --max-index and --max-len must be nonnegative")


def _cmd_normalize(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    if args.group == "F":
        p, n = f_fraction(w, _budget(args))
        record = {
            "command": "normalize", "group": "F", "input": args.word,
            "positive": list(p.indices), "negative": list(n.indices),
        }
        human = f"positive: {format_word(p.word()) or '(empty)'}\nnegative: {format_word(n.word()) or '(empty)'}"
        _emit(args, record, human)
        return EXIT_TRUE
    mode = _HAT_MODES[args.group]
    fr = canonicalize_hat(w, mode, _budget(args))
    if mode is GroupMode.VHAT:
        beta_repr = repr(fr.beta)
    else:
        beta_repr = format_word(braid_to_word(fr.beta)) or "(empty)"
    record = {
        "command": "normalize", "group": args.group, "input": args.word,
        "positive": list(fr.f_part.indices), "beta": beta_repr,
        "negative": list(fr.g_part.indices),
    }
    human = (
        f"positive: {format_word(fr.f_part.word()) or '(empty)'}\n"
        f"middle:   {beta_repr}\n"
        f"negative: {format_word(fr.g_part.word()) or '(empty)'}"
    )
    _emit(args, record, human)
    return EXIT_TRUE


def _cmd_lmr(args: argparse.Namespace) -> int:
    form: LMRForm = to_third_form(parse_word(args.word), _budget(args))
    record = {
        "command": "lmr", "input": args.word,
        "L": format_word(form.L), "M": format_word(form.M),
        "R": format_word(form.R), "k": form.k,
    }
    human = (
        f"L: {format_word(form.L) or '(empty)'}\n"
        f"M: {format_word(form.M) or '(empty)'}\n"
        f"R: {format_word(form.R) or '(empty)'}\n"
        f"k: {form.k}"
    )
    _emit(args, record, human)
    return EXIT_TRUE


def _cmd_trivial(args: argparse.Namespace) -> int:
    budget = _budget(args)
    verdict = decide_trivial(args.group, parse_word(args.word), budget)
    record = {
        "command": "trivial", "group": args.group, "input": args.word,
        "trivial": verdict, "steps": budget.used,
    }
    _emit(args, record, "true" if verdict else "false")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_equal(args: argparse.Namespace) -> int:
    budget = _budget(args)
    w = parse_word(args.word1) + invert(parse_word(args.word2))
    verdict = decide_trivial(args.group, w, budget)
    record = {
        "command": "equal", "group": args.group,
        "inputs": [args.word1, args.word2],
        "equal": verdict, "steps": budget.used,
    }
    _emit(args, record, "true" if verdict else "false")
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_all(args.bound, args.max_steps, args.family)
    if args.json:
        record = {
            "command": "verify", "bound": args.bound, "family": args.family,
            "total": len(report.results), "ok": report.ok,
            "failures": [r.line() for r in report.failures()],
            "records": [r.line() for r in report.results],
        }
        print(json.dumps(record, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
        print(report.summary())
    if any(r.verdict == "resource-cap" for r in report.results):
        return EXIT_CAP
    return EXIT_TRUE if report.ok else EXIT_FALSE


def _cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    families = (Family.V, Family.PI, Family.PIBAR)
    disagreements = []
    for n in range(args.samples):
        w = random_word(rng, families, args.max_index, args.max_len)
        for mode, hat_mode in ((BVMode.V, GroupMode.VHAT), (BVMode.BV, GroupMode.BVHAT)):
            by_lmr = is_trivial_bv(w, mode, _budget(args))
            by_hat = is_trivial_hat(expand_bv_generators(w), hat_mode, _budget(args))
            if by_lmr != by_hat:
                disagreements.append((n, mode.value, format_word(w)))
    checked = 2 * args.samples
    record = {
        "command": "selftest", "samples": args.samples, "seed": args.seed,
        "max_index": args.max_index, "max_len": args.max_len,
        "checked": checked, "disagreements": disagreements,
    }
    human = f"agreement: {checked - len(disagreements)}/{checked}"
    if disagreements:
        shown = "\n".join(f"  sample {n} mode {m}: {w}" for n, m, w in disagreements)
        human += f"\ndisagreements:\n{shown}"
    _emit(args, record, human)
    return EXIT_TRUE if not disagreements else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvwords",
        description="Word problems and normal forms for Thompson's groups and their braided variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit one JSON record")
        p.add_argument("--max-steps", type=int, default=None, help="rewriting step cap")

    p = sub.add_parser("normalize", help="canonical fraction of a word")
    p.add_argument("--group", required=True, choices=("F", "Vhat", "BVhat"))
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("lmr", help="left-middle-right form of a v/p/pb word")
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_lmr)

    p = sub.add_parser("trivial", help="decide the word problem")
    p.add_argument("--group", required=True, choices=ALL_GROUPS)
    p.add_argument("word")
    common(p)
    p.set_defaults(func=_cmd_trivial)

    p = sub.add_parser("equal", help="decide equality of two words")
    p.add_argument("--group", required=True, choices=ALL_GROUPS)
    p.add_argument("word1")
    p.add_argument("word2")
    common(p)
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("verify", help="verify the relation tables and finite presentations")
    p.add_argument("--bound", type=int, default=8, help="instantiate families up to this index")
    p.add_argument("--family", default=None, help="restrict to one relation family")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="cross-check the two V/BV deciders on random words")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=int(os.environ.get("BVWORDS_SEED", "0")))
    p.add_argument("--max-index", type=int, default=5)
    p.add_argument("--max-len", type=int, default=10)
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (WordSyntaxError, AlphabetError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StepLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except Exception as e:
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
