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
from bvwords.limits import MAX_BOUND, MAX_INDEX, MAX_WORD_LEN
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


@pytest.mark.parametrize("argv, line", [
    # the p letters between two cores cancel completely, and the join
    # leaves the cores that meet: M is not freely reduced
    (("lmr", "pb1 v2' pb1'"),
     '{"L": "v1 v2", "M": "pb3 pb3\'", "R": "v1\' v1\'", "command": "lmr", "input": "pb1 v2\' pb1\'", "k": 4}'),
    # one height repair, one equalizing raise and four final raises; the
    # join cancels the inverse p pairs that meet across it
    (("lmr", "v3 pb0' p0 p0 pb0 v3'"),
     '{"L": "v3 v0", "M": "p1\' p2\' p3\' p4\' pb5\' p0 p1 p2 p3 p4 p4 p3 p2 p1 p0 pb5 p4 p3 p2 p1", '
     '"R": "v0\' v3\'", "command": "lmr", "input": "v3 pb0\' p0 p0 pb0 v3\'", "k": 6}'),
    # height repair makes p3' p3 pb4 v3', and the cut reduces the flank pair away
    (("lmr", "p3' pb3"),
     '{"L": "", "M": "pb4", "R": "v3\'", "command": "lmr", "input": "p3\' pb3", "k": 5}'),
    # the trailing run's second flush crosses pb1 by the replay rule
    (("lmr", "pb1 p0' pb2 p3"),
     '{"L": "v1 v1 v2", "M": "pb4 p3 p2 p1 p0\' pb4 p3 p2 p3", "R": "", "command": "lmr", '
     '"input": "pb1 p0\' pb2 p3", "k": 5}'),
    # height repair on the middle's mirror spills v0' into R
    (("lmr", "p0 pb0 p2"),
     '{"L": "v1 v2 v3", "M": "p0 p1 p2 p3 p3 pb4 p2 p3 p1 p2 p0 p1 p3", "R": "v0\'", "command": "lmr", '
     '"input": "p0 pb0 p2", "k": 5}'),
    # the hat fold's second run carries two l letters leftwards through an
    # s block, each meeting an s letter of its own index or of one less
    (("normalize", "--group", "BVhat", "s1 s0 l1 s0 l0"),
     '{"beta": "s3 s2 s1 s0 s0 s1", "command": "normalize", "group": "BVhat", "input": "s1 s0 l1 s0 l0", '
     '"negative": [], "positive": [0, 0]}'),
    # handle reduction on a braid relator
    (("trivial", "--group", "Binf", "s0 s1 s0 s1' s0' s1'"),
     '{"command": "trivial", "group": "Binf", "input": "s0 s1 s0 s1\' s0\' s1\'", "steps": 4, "trivial": true}'),
    # V's equalization joins the lines of one height in both sweeps and
    # ends on one line; the second word's line is not the identity
    (("trivial", "--group", "V", "pb1 pb1 pb3 pb3"),
     '{"command": "trivial", "group": "V", "input": "pb1 pb1 pb3 pb3", "steps": 2, "trivial": true}'),
    (("trivial", "--group", "V", "pb1 pb0' pb3 pb3"),
     '{"command": "trivial", "group": "V", "input": "pb1 pb0\' pb3 pb3", "steps": 4, "trivial": false}'),
    # height repair levels pb2 by one block of three splits
    (("lmr", "pb0 pb2 p4"),
     '{"L": "v0 v1 v1 v2 v3", "M": "pb5 p4 p3 p2 p1 p0 pb5 p4 p3 p2 p4", "R": "", "command": "lmr", '
     '"input": "pb0 pb2 p4", "k": 6}'),
    # 403 of the steps are height repair
    (("trivial", "--group", "BV", "pb1' p5' pb1' pb4 v5 pb0' p0' v5' pb5' pb1'"),
     '{"command": "trivial", "group": "BV", "input": "pb1\' p5\' pb1\' pb4 v5 pb0\' p0\' v5\' pb5\' pb1\'", '
     '"steps": 439, "trivial": false}'),
    # 210 of the steps are first-form moves
    (("trivial", "--group", "V", "v5' p5 pb0 p3 p3' v5 pb1 p2 pb0"),
     '{"command": "trivial", "group": "V", "input": "v5\' p5 pb0 p3 p3\' v5 pb1 p2 pb0", '
     '"steps": 495, "trivial": false}'),
    # equalization lifts the suffix pb4' by 4 in one pass; the two pb1
    # cores, joined, meet as pb5 pb5
    (("lmr", "pb1 pb1 v2' pb4'"),
     '{"L": "", "M": "p1 p2 p3 p4 pb5 pb5 p4 p3 p2 p1 pb5\'", "R": "v2\'", "command": "lmr", '
     '"input": "pb1 pb1 v2\' pb4\'", "k": 6}'),
    # a lift of 3 in the second sweep, onto L
    (("lmr", "pb4 pb4 pb1' v4"),
     '{"L": "v1 v2 v3 v3", "M": "pb8 pb8 p5\' p6\' p7\' pb8\' p4\' p5\' p6\' p7\' p3\' p4\' p5\' p6\' '
     'p2\' p3\' p4\' p5\' p1\' p2\' p3\' p4\'", "R": "v3\' v2\' v1\'", "command": "lmr", '
     '"input": "pb4 pb4 pb1\' v4", "k": 9}'),
    (("trivial", "--group", "BV", "pb1 pb1 v2' pb4'"),
     '{"command": "trivial", "group": "BV", "input": "pb1 pb1 v2\' pb4\'", "steps": 5, "trivial": false}'),
    (("trivial", "--group", "V", "pb4 pb4 pb1' v4"),
     '{"command": "trivial", "group": "V", "input": "pb4 pb4 pb1\' v4", "steps": 12, "trivial": false}'),
], ids=["lmr_cores_meet", "lmr", "lmr_repair", "lmr_replay", "lmr_mirror", "bvhat_fold", "binf",
        "v_runs_trivial", "v_runs_not_trivial", "lmr_repair_block", "bv_long_repair", "v_long_flush",
        "lmr_lift_4", "lmr_lift_3", "bv_lift_4", "v_lift_3"])
def test_json_golden(capsys, argv, line):
    code, out, _ = run(capsys, argv[0], "--json", *argv[1:])
    # a word that is not trivial exits 1
    assert code == (0 if json.loads(line).get("trivial", True) else 1)
    assert out == line + "\n"


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


def test_bad_seed_env_var_fails_only_selftest_without_seed(monkeypatch, capsys):
    monkeypatch.setenv("BVWORDS_SEED", "abc")
    assert run(capsys, "trivial", "--group", "F", "l0 l0'") == (0, "true\n", "")
    with pytest.raises(SystemExit) as exit_:
        main(["selftest", "--samples", "2"])
    assert exit_.value.code == 2
    assert "BVWORDS_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert run(capsys, "selftest", "--samples", "2", "--seed", "3") == (0, "agreement: 4/4\n", "")


def test_parse_error_exit(capsys):
    code, out, err = run(capsys, "trivial", "--group", "F", "l0 xx")
    assert code == 2 and out == ""
    assert "bad token 'xx' at position 2" in err
    code, _, err = run(capsys, "trivial", "--group", "F", "s0")
    assert code == 2 and "not in alphabet" in err


def test_sinf_rejects_p_letters(capsys):
    # Sinf is written over s letters only
    for word in ("p0 p0", "p1"):
        code, out, err = run(capsys, "trivial", "--group", "Sinf", word)
        assert code == 2 and out == ""
        assert "not in alphabet s" in err


@pytest.mark.parametrize("group, word, message", [
    ("V", "s0", "error: group V: to_first_form: letter s0 not in alphabet p/pb/v"),
    ("BV", "p0 l1", "error: group BV: to_first_form: letter l1 not in alphabet p/pb/v"),
    ("Sinf", "p0 p0", "error: group Sinf: from_sigma_word: letter p0 not in alphabet s"),
    ("F", "s0", "error: group F: f_fraction: letter s0 not in alphabet l"),
    ("Vhat", "l0 v1", "error: group Vhat: canonicalize_hat: letter v1 not in alphabet l/s"),
    ("BVhat", "p0", "error: group BVhat: canonicalize_hat: letter p0 not in alphabet l/s"),
    ("Binf", "s0 l0", "error: group Binf: is_trivial_braid: letter l0 not in alphabet s"),
])
def test_alphabet_error_names_the_group(capsys, group, word, message):
    code, out, err = run(capsys, "trivial", "--group", group, word)
    assert (code, out, err) == (2, "", message + "\n")
    code, out, err = run(capsys, "equal", "--group", group, word, "")
    assert (code, out, err) == (2, "", message + "\n")
    if group in ("F", "Vhat", "BVhat"):
        code, out, err = run(capsys, "normalize", "--group", group, word)
        assert (code, out, err) == (2, "", message + "\n")


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


def test_index_cap_at_the_boundary(capsys):
    code, out, _ = run(capsys, "trivial", "--group", "Sinf", f"s{MAX_INDEX} s{MAX_INDEX}")
    assert (code, out) == (0, "true\n")
    code, out, err = run(capsys, "trivial", "--group", "Sinf", f"s0 s{MAX_INDEX + 1}")
    assert code == 2 and out == ""
    assert err.startswith("error: bad token") and f"at position 2: index above {MAX_INDEX}" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_step_cap_is_usage_error(capsys, cap):
    code, out, err = run(capsys, "trivial", "--group", "V", "--max-steps", cap, "v0")
    assert code == 2 and out == ""
    assert "step limit must be positive" in err


@pytest.mark.parametrize("error", [TypeError("boom"), ValueError("boom")])
def test_internal_fault_has_its_own_exit_code(capsys, monkeypatch, error):
    def broken(*args):
        raise error

    monkeypatch.setattr("bvwords.presentations.is_trivial_bv", broken)
    code, out, err = run(capsys, "trivial", "--group", "V", "v0")
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and "boom" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("verify", "--bound", "-1"), "bound must be nonnegative"),
    (("verify", "--bound", "1", "--family", "no-such-family"), "unknown relation family"),
    (("selftest", "--samples", "2", "--max-index", "-1"), "must be nonnegative"),
    (("verify", "--bound", "1", "--max-steps", "0"), "step limit must be positive"),
    (("selftest", "--samples", "1", "--max-index", str(MAX_INDEX + 1)), f"at most {MAX_INDEX}"),
    # a selftest of no sample would report agreement having checked nothing
    (("selftest", "--samples", "0"), "--samples must be at least 1"),
    # both would allocate without limit before any step budget applies
    (("verify", "--bound", str(MAX_BOUND + 1)), f"bound must be at most {MAX_BOUND}"),
    (("selftest", "--samples", "1", "--max-len", str(MAX_WORD_LEN + 1)), f"--max-len must be at most {MAX_WORD_LEN}"),
])
def test_bad_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_verify_summary_counts_caps_apart_from_failures(capsys):
    # every instance that does not hold here hit the step cap: none failed
    code, out, _ = run(capsys, "verify", "--bound", "1", "--max-steps", "1")
    assert code == 3
    assert out.count("verdict=resource-cap") == 188 and out.count("verdict=holds") == 44
    assert out.rstrip().endswith("total: 232 instances, 44 hold, 0 FAILED, 188 capped")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_verify_selection_without_instances_is_usage_error(capsys, json_flag):
    # vv-shift needs two indices m < q, so bound 0 selects nothing: that
    # is a usage error, not a failed check
    code, out, err = run(capsys, "verify", "--bound", "0", "--family", "vv-shift", *json_flag)
    assert (code, out) == (2, "")
    assert err == "error: relation family 'vv-shift' has no instance at bound 0\n"
