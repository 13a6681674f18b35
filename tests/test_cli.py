"""Command-line interface: parsing, golden outputs, exit codes, JSON."""

import json
import random

import pytest

from bvwords.cli import (
    WordSyntaxError,
    build_parser,
    format_word,
    main,
    parse_word,
)
from bvwords.words import Family, lam, pi, pibar, random_word, sig, vgen

ALL_FAMILIES = (Family.LAMBDA, Family.SIGMA, Family.V, Family.PI, Family.PIBAR)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_examples():
    assert parse_word("l0 l1 l0' l0'") == (lam(0), lam(1), lam(0, -1), lam(0, -1))
    assert parse_word("") == ()
    assert parse_word("s0 s0") == (sig(0), sig(0))
    assert parse_word("pb3' v0 p2") == (pibar(3, -1), vgen(0), pi(2))
    assert parse_word("  p10   v0  ") == (pi(10), vgen(0))


def test_parse_errors():
    with pytest.raises(WordSyntaxError) as info:
        parse_word("xx")
    assert info.value.token == "xx" and info.value.position == 1
    with pytest.raises(WordSyntaxError) as info:
        parse_word("l0 q1 v2")
    assert info.value.position == 2
    for bad in ("l", "p-1", "pb", "l0''", "L0", "3l"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


def test_format_round_trip():
    rng = random.Random(79)
    for _ in range(200):
        w = random_word(rng, ALL_FAMILIES, max_index=9, max_len=12)
        assert parse_word(format_word(w)) == w


def test_trivial_exit_codes(capsys):
    assert run(capsys, "trivial", "--group", "V", "p0 p0") == (0, "true\n", "")
    assert run(capsys, "trivial", "--group", "BV", "p0 p0") == (1, "false\n", "")
    assert run(capsys, "trivial", "--group", "Vhat", "s0 s0")[0] == 0
    assert run(capsys, "trivial", "--group", "BVhat", "s0 s0")[0] == 1
    assert run(capsys, "trivial", "--group", "F", "l2 l1 l3' l1'")[0] == 0
    assert run(capsys, "trivial", "--group", "Sinf", "s0 s1 s0 s1 s0 s1")[0] == 0
    assert run(capsys, "trivial", "--group", "Binf", "s0 s1 s0 s1' s0' s1'")[0] == 0
    assert run(capsys, "trivial", "--group", "Binf", "s0 s0")[0] == 1


def test_equal_command(capsys):
    code, out, _ = run(capsys, "equal", "--group", "BVhat", "s1 l1", "--", "l2 s1 s2")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "equal", "--group", "F", "l1", "--", "l2")
    assert (code, out) == (1, "false\n")
    code, out, _ = run(capsys, "equal", "--group", "BV", "p0 v0", "--", "v1 p0 p1")
    assert (code, out) == (0, "true\n")


def test_normalize_f_golden(capsys):
    code, out, _ = run(capsys, "normalize", "--group", "F", "l5 l3 l1")
    assert code == 0
    assert out == "positive: l1 l4 l7\nnegative: (empty)\n"
    code, out, _ = run(capsys, "normalize", "--group", "F", "l1 l2'")
    assert out == "positive: l1\nnegative: l2\n"


def test_normalize_hat_golden(capsys):
    code, out, _ = run(capsys, "normalize", "--group", "BVhat", "s0 l0")
    assert code == 0
    assert out == "positive: l1\nmiddle:   s0 s1\nnegative: (empty)\n"
    code, out, _ = run(capsys, "normalize", "--group", "Vhat", "s0 l0", "--json")
    record = json.loads(out)
    assert record == {
        "beta": "Permutation(0 1 2)",
        "command": "normalize",
        "group": "Vhat",
        "input": "s0 l0",
        "negative": [],
        "positive": [1],
    }


def test_lmr_golden(capsys):
    code, out, _ = run(capsys, "lmr", "pb3' pb2 p2")
    assert code == 0
    assert out == "L: v2\nM: pb4' p3 pb4 p2 p3 p3 p2\nR: v3'\nk: 5\n"
    code, out, _ = run(capsys, "lmr", "")
    assert code == 0 and out.endswith("k: 0\n")


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--bound", "2")
    assert code == 0
    assert out.rstrip().endswith("total: 305 instances, all hold")
    code, out, _ = run(capsys, "verify", "--bound", "3", "--family", "pv-shift")
    assert code == 0
    body = [line for line in out.splitlines() if line.startswith("source=")]
    assert body and all("pv-shift(" in line for line in body)
    code, out, _ = run(capsys, "verify", "--bound", "1", "--json")
    record = json.loads(out)
    assert record["ok"] is True and record["failures"] == []
    assert record["total"] == len(record["records"])


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest", "--samples", "25", "--seed", "3",
                       "--max-index", "4", "--max-len", "8")
    assert code == 0
    assert out == "agreement: 50/50\n"


def test_json_determinism(capsys):
    argv = ("selftest", "--samples", "10", "--seed", "11", "--json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second and first[0] == 0
    assert json.loads(first[1])["seed"] == 11


def test_seed_env_var(monkeypatch):
    monkeypatch.setenv("BVWORDS_SEED", "9")
    args = build_parser().parse_args(["selftest"])
    assert args.seed == 9
    args = build_parser().parse_args(["selftest", "--seed", "4"])  # flag wins
    assert args.seed == 4


def test_parse_error_exit(capsys):
    code, out, err = run(capsys, "trivial", "--group", "F", "l0 xx")
    assert code == 2 and out == ""
    assert "bad token 'xx' at position 2" in err
    code, _, err = run(capsys, "trivial", "--group", "F", "s0")
    assert code == 2 and "not in alphabet" in err


def test_step_cap_exit(capsys):
    code, _, err = run(capsys, "normalize", "--group", "BVhat",
                       "s0 l0 s0 l0 s0 l0", "--max-steps", "1")
    assert code == 3
    assert "step limit" in err.lower() or "cap" in err.lower()


def test_step_cap_governs_f_route(capsys):
    # l2' pushes past l0 and then past l5: two steps
    code, out, _ = run(capsys, "trivial", "--group", "F", "--json", "l2' l0 l5")
    assert code == 1 and json.loads(out)["steps"] == 2
    code, out, _ = run(capsys, "equal", "--group", "F", "--json", "l2' l0", "l5'")
    assert code == 1 and json.loads(out)["steps"] == 2
    for argv in (("trivial", "--group", "F"), ("normalize", "--group", "F")):
        code, out, err = run(capsys, *argv, "l2' l0 l5", "--max-steps", "1")
        assert code == 3 and out == ""
        assert "f_fraction: exceeded step limit of 1" in err


def test_oversized_index_is_usage_error(capsys):
    # more digits than Python's int conversion accepts by default
    code, out, err = run(capsys, "trivial", "--group", "F", "l0 l" + "7" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error: bad token") and "at position 2" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_step_cap_is_usage_error(capsys, cap):
    code, out, err = run(capsys, "trivial", "--group", "V", "--max-steps", cap, "v0")
    assert code == 2 and out == ""
    assert "step limit must be positive" in err


@pytest.mark.parametrize("error", [TypeError("boom"), ValueError("boom")])
def test_internal_fault_has_its_own_exit_code(capsys, monkeypatch, error):
    def broken(*args):
        raise error

    monkeypatch.setattr("bvwords.cli.is_trivial_bv", broken)
    code, out, err = run(capsys, "trivial", "--group", "V", "v0")
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and "boom" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("verify", "--bound", "-1"), "bound must be nonnegative"),
    (("verify", "--bound", "1", "--family", "no-such-family"), "unknown relation family"),
    (("selftest", "--samples", "2", "--max-index", "-1"), "must be nonnegative"),
    (("verify", "--bound", "1", "--max-steps", "0"), "step limit must be positive"),
])
def test_bad_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
