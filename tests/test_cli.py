"""Command-line driver: formats, workflows, exit codes."""

import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import ringload
from ringload import GuaranteeViolated, ParseError, round_medium, round_upper, skutella8, tight3
from ringload.cli import fmt, load_input, main, parse_input_text
from support import mutated_texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trips_through_the_parser(tmp_path, capsys):
    path = tmp_path / "probe.txt"
    code, out, err = run(capsys, "gen", "skutella8", "--eps", "1/2", "--out", str(path))
    assert code == 0 and err == ""
    data = load_input(str(path))
    assert data.kind == "split"
    assert data.routing == skutella8(Fraction(1, 2))


def test_round_brute_reports_the_enumerated_optimum(tmp_path, capsys):
    path = tmp_path / "probe.txt"
    run(capsys, "gen", "skutella8", "--out", str(path))
    code, out, err = run(capsys, "round", str(path), "--method", "brute")
    assert code == 0
    assert "realized load increase: 11 (≈ 11)" in out
    assert "method: brute-force" in out
    assert "max edge load: 35" in out
    # the lowest-mask witness, demand by demand
    directions = [line.split(": ")[1] for line in out.splitlines() if line.startswith("  demand ")]
    ccw, cw = "counter-clockwise", "clockwise"
    assert directions == [ccw, cw, ccw, cw, cw, ccw, ccw, ccw]


def test_round_main_report_structure(tmp_path, capsys):
    path = tmp_path / "t6.txt"
    run(capsys, "gen", "tight6", "--out", str(path))
    code, out, err = run(capsys, "round", str(path))
    assert code == 0
    assert "demands: 6, largest value D = 2" in out
    assert out.count("demand ") == 6
    assert "certified bound:" in out


def test_round_ssw_method(tmp_path, capsys):
    path = tmp_path / "t3.txt"
    run(capsys, "gen", "tight3", "--out", str(path))
    code, out, _ = run(capsys, "round", str(path), "--method", "ssw")
    assert code == 0
    assert "method: ssw" in out


@pytest.mark.parametrize(
    "name, method, construction",
    [("skutella8", "medium", round_medium), ("tight3", "upper", round_upper)],
)
def test_round_branch_methods(tmp_path, capsys, name, method, construction):
    path = tmp_path / f"{name}.txt"
    run(capsys, "gen", name, "--out", str(path))
    code, out, err = run(capsys, "round", str(path), "--method", method)
    assert code == 0 and err == ""
    expected = construction(load_input(str(path)).routing)
    assert f"method: {expected.method.value}" in out
    assert f"realized load increase: {fmt(expected.realized)}\n" in out


# the first pinned golden routing of test_rounding, which round_main
# rounds through the crossover branch (induced patterns, splice)
CROSSOVER_TEXT = (
    "split 6\npair 19/8 3\npair 22/7 8\npair 29/2 22\npair 15/7 35/4\npair 3 4/5\npair 1/2 3/4\n"
)
# the second pinned golden routing (m = 8), also a crossover for round_main
CROSSOVER8_TEXT = (
    "split 8\npair 15/11 4\npair 5/8 8/7\npair 32/3 12\npair 11/9 13/9\n"
    "pair 13 5/2\npair 29/10 7/6\npair 35/4 20/3\npair 11/3 7/2\n"
)
# ring files for the reduction path: "three" takes 3 exchanges, keeps 6 of
# its 9 nodes and reduces to m = 3; "nest" takes 4 exchanges, nested both
# ways round, and reduces to m = 2
PINNED_TEXTS = {
    "crossover": CROSSOVER_TEXT,
    "crossover8": CROSSOVER8_TEXT,
    "three": (
        "ring 9\ndemand 1 6 3 1\ndemand 1 8 4 1\ndemand 2 4 5 4\n"
        "demand 2 6 3 1\ndemand 3 7 3 1\ndemand 4 8 6 4\n"
    ),
    "nest": (
        "ring 10\ndemand 1 5 5 3\ndemand 2 6 4 1\ndemand 3 7 5 1\n"
        "demand 1 10 4 2\ndemand 1 2 2 1\ndemand 1 8 5 2\n"
    ),
}


@pytest.mark.parametrize(
    "source, method, digest",
    [
        # skutella8 at eps 0 sits on delta = 2/5; round_upper mirrors it
        ("skutella8", "main", "9ac60bfffd1016752c21ca558f1c50519b1bd7bfb343b0b89952c62f66607afe"),
        ("skutella8", "medium", "9ac60bfffd1016752c21ca558f1c50519b1bd7bfb343b0b89952c62f66607afe"),
        ("skutella8", "upper", "00dee8e09d22062b3459dd6d8803b837d518217ff6f4ca43baa8ab64007e7f7d"),
        ("skutella8", "ssw", "5c0c38eb4fcfd74b91e8a8f94f35b69e3bdcb57661c666d2430cf780963a5530"),
        ("crossover", "main", "343997533f20381e3506440b8648b14b3c3f7c2c513e7c5abd4815bac84b5771"),
        ("crossover", "medium", "8d5cd28b49cff5f3ae90b07aa6217c7deebefa23a18f39a4e2377a22ec24e491"),
        ("crossover", "upper", "343997533f20381e3506440b8648b14b3c3f7c2c513e7c5abd4815bac84b5771"),
        ("crossover", "ssw", "e301366483b440d7c57a708faa341cb682fa9ee4c43f56648785f70e9047c993"),
        ("crossover8", "main", "037315aec52d367210f03b7e330721911d50dbe13663e20a0b8f42f3fe9a6651"),
        ("crossover8", "medium", "53b81b6eeb5fb3cc18d934a74d78b5c29b16f51bba42ca67966d36f485b76188"),
        ("crossover8", "upper", "037315aec52d367210f03b7e330721911d50dbe13663e20a0b8f42f3fe9a6651"),
        ("three", "main", "453e658acd987184200e17b2dc466c6d8fa5de5000919b775c5372daf2c31626"),
        ("three", "brute", "fee8a88e0cbd5f9ad4f16f89ceaab629840bd709889649d3c6bbf1d040d179b2"),
        ("nest", "main", "7ad70fa0c00bfc62c305b3aebc065e2bc6232fcaca7ff1c93aed7742126988b5"),
        ("nest", "brute", "96a4c7252ce1f00f676383a57870f14a3448174378a312f37d1fe0410c794c11"),
    ],
)
def test_round_text_is_pinned(tmp_path, capsys, source, method, digest):
    path = tmp_path / "inst.txt"
    if source in PINNED_TEXTS:
        path.write_text(PINNED_TEXTS[source])
    else:
        run(capsys, "gen", source, "--eps", "0", "--out", str(path))
    code, out, err = run(capsys, "round", str(path), "--method", method)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_round_reduces_ring_input(tmp_path, capsys):
    path = tmp_path / "ring.txt"
    path.write_text(
        "# two crossing split demands, one frozen\n"
        "ring 8\n"
        "demand 1 5 2 1\n"
        "demand 2 6 2 1\n"
        "demand 3 4 1 0\n"
    )
    code, out, _ = run(capsys, "round", str(path))
    assert code == 0
    assert "reduced to 2 crossing demands" in out
    assert "routing on the original ring:" in out
    assert "demand 3 (3 -> 4, value 1): counter-clockwise" in out


def test_round_single_split_demand(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("ring 6\ndemand 2 5 4 3\ndemand 1 3 1 1\n")
    code, out, _ = run(capsys, "round", str(path))
    assert code == 0
    assert "one split demand after reduction" in out
    assert "demand 1 (2 -> 5, value 4): clockwise" in out


def test_round_trivial_ring(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("ring 5\ndemand 1 3 2 2\ndemand 2 4 3 0\n")
    code, out, _ = run(capsys, "round", str(path))
    assert code == 0
    assert "nothing left to round" in out


def test_verify_reports(tmp_path, capsys):
    path = tmp_path / "s.txt"
    run(capsys, "gen", "seven18", "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "split routing with 7 crossing demands on a 14-node ring" in out
    assert "largest demand D = 18" in out

    ring = tmp_path / "r.txt"
    ring.write_text("ring 4\ndemand 1 3 1\ndemand 2 4 1\n")
    code, out, _ = run(capsys, "verify", str(ring))
    assert code == 0
    assert "ring with 4 nodes and 2 demands" in out
    assert "split demands: 2, one-sided: 0" in out


def test_boost_output_equalizes(tmp_path, capsys):
    src = tmp_path / "t3.txt"
    out_path = tmp_path / "boosted.txt"
    run(capsys, "gen", "tight3", "--out", str(src))
    code, out, _ = run(capsys, "boost", str(src), "--check", "--out", str(out_path))
    assert code == 0
    assert "gap: 4 (≈ 4) (certified >= source performance)" in out
    boosted = load_input(str(out_path))
    assert boosted.kind == "ring"
    loads = boosted.general.loads()
    assert set(loads) == {Fraction(8)}


@pytest.mark.parametrize(
    "text, digest",
    [
        # capped fillers wrap past the last node with clockwise part 0
        ("split 3\npair 10 1\npair 10 1\npair 10 1\n",
         "7a53b7b842b382cd330ddfaefd9dcaeef56dbed9971bc37257acdb85ff795966"),
        # fractional parts, equalized at 43/12
        ("split 4\npair 1/2 3/2\npair 5/6 1/3\npair 1 1\npair 1/4 3/4\n",
         "3a145035c90554362214c10314699028f33ac8c9f58e23251a4ed98880993214"),
    ],
    ids=["capping", "fractional"],
)
def test_boost_text_is_pinned(tmp_path, capsys, text, digest):
    src = tmp_path / "src.txt"
    src.write_text(text)
    out_path = tmp_path / "boosted.txt"
    code, _, _ = run(capsys, "boost", str(src), "--check", "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_export_milp(tmp_path, capsys):
    out_path = tmp_path / "m2.lp"
    code, out, _ = run(capsys, "export-milp", "2", str(out_path))
    assert code == 0
    assert "14 binary" in out
    from ringload import parse_lp

    model = parse_lp(out_path.read_text())
    assert model.m == 2 and model.reduce_vars and model.symmetry_break


def test_search_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    code, out, _ = run(capsys, "search", "1", "--seed", "pin", "--budget", "2", "--out", str(a))
    assert code == 0
    assert "best minimum performance over D: 1/2" in out
    run(capsys, "search", "1", "--seed", "pin", "--budget", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["search", "6", "--seed", "ci", "--budget", "4"],
         "0b9c6b5ddf82c77b12062c542dd23ef5f91f47b5ce87816a7e6a0b56a83d7ab7"),
        (["search", "8", "--seed", "ci", "--budget", "4", "--denominator", "10"],
         "54cc24ee20a5bcaa45fa329062e6c7f3a2a21085ce6a4b7d659168582d25e452"),
        (["search", "10", "--seed", "ci", "--budget", "2", "--denominator", "12"],
         "9321bb3d8c4211cc84e622484e824b2df24893d240d49945a257df0f23dbb3d1"),
    ],
    ids=["m6", "m8-tenths", "m10-twelfths"],
)
def test_search_text_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_comments_and_blanks_are_ignored():
    data = parse_input_text("# header\n\nsplit 2 # demand count\npair 1 2\n\npair 3 4 # tail\n")
    assert data.routing.u == (1, 3) and data.routing.v == (2, 4)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "circle 4\n",
        "split 2\npair 1 2\n",
        "split 1\npair 1.5 2\n",
        "split 1\npair 1 -2\n",
        "split x\npair 1 2\n",
        "ring 4\ndemand 1 9 2\n",
        "ring 4\ndemand 1 3 2 5\n",
        "ring 4\nedge 1 3 2\n",
        "ring ²\n",
    ],
)
def test_parse_rejects(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text", ["ring 4\ndemand 1 2 1/0\n", "split 1\npair 1/0 1\n"], ids=["ring", "split"]
)
def test_zero_denominator_input_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, _, err = run(capsys, "round", str(path))
    assert code == 2
    assert "zero denominator" in err


def test_zero_denominator_option_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "skutella8", "--eps", "1/0"])
    assert info.value.code == 2
    assert "zero denominator" in capsys.readouterr().err


FUZZ_SEEDS = (
    "ring 8\ndemand 1 5 7/2\ndemand 2 6 4 1  # clockwise part 1\ndemand 3 4 1 0\n",
    "ring 8\ndemand 1 2 4 2\ndemand 1 5 4 3\ndemand 1 8 4 2\ndemand 4 7 4 3\n",
    "split 2\npair 3 1\npair 1/2 5/2\n",
    "# three crossing demands\nsplit 3\npair 19/8 3\n\npair 22/7 8\npair 29/2 22\n",
)


@settings(max_examples=1000)
@given(mutated_texts(FUZZ_SEEDS))
def test_parse_input_text_fails_only_with_parse_error(text):
    try:
        parse_input_text(text)
    except ParseError:
        pass


def test_missing_file_and_unknown_name(tmp_path, capsys):
    code, _, err = run(capsys, "round", str(tmp_path / "absent.txt"))
    assert code == 2 and "cannot read" in err
    code, _, err = run(capsys, "gen", "nonesuch")
    assert code == 2 and "unknown instance" in err
    code, _, err = run(capsys, "gen", "tight_even")
    assert code == 2 and "--m" in err


@pytest.mark.parametrize("argv, option", [
    (("skutella8", "--m", "4"), "--m"),
    (("tight_even", "--m", "4", "--eps", "1"), "--eps"),
    (("tight3", "--m", "4"), "--m"),
])
def test_gen_refuses_arguments_the_generator_does_not_take(capsys, argv, option):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2 and not out
    assert f"takes no {option}" in err


def test_method_domain_error_exits_2(tmp_path, capsys):
    path = tmp_path / "s.txt"
    run(capsys, "gen", "seven18", "--out", str(path))
    code, _, err = run(capsys, "round", str(path), "--method", "upper")
    assert code == 2
    assert "use round_medium" in err


def test_guarantee_failure_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t3.txt"
    run(capsys, "gen", "tight3", "--out", str(path))

    def explode(r):
        raise GuaranteeViolated("forced for the exit-code contract")

    monkeypatch.setattr("ringload.cli.round_main", explode)
    code, _, err = run(capsys, "round", str(path))
    assert code == 3
    assert "guarantee violated: forced" in err
    assert "broken certified invariant" in err


def test_failed_assert_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t3.txt"
    run(capsys, "gen", "tight3", "--out", str(path))

    def explode(r):
        raise AssertionError("forced internal check")

    monkeypatch.setattr("ringload.cli.round_main", explode)
    code, _, err = run(capsys, "round", str(path))
    assert code == 3
    assert "guarantee violated: forced internal check" in err
    assert "broken certified invariant" in err


@pytest.mark.parametrize(
    "text, message",
    [
        # sharing node 1: the endpoints are not distinct
        ("ring 6\ndemand 1 3 2 1\ndemand 1 5 2 1\n", "node 1 touches two split demands after uncrossing"),
        # nested spans: (1,4) relabels to (1,4), (2,3) to (2,3)
        ("ring 6\ndemand 1 4 2 1\ndemand 2 3 2 1\n", r"demand \(1,4\) relabels to \(1,4\), not antipodal"),
        # disjoint spans: (1,2) relabels to (1,2), (3,4) to (3,4)
        ("ring 6\ndemand 1 2 2 1\ndemand 3 4 2 1\n", r"demand \(1,2\) relabels to \(1,2\), not antipodal"),
    ],
    ids=["shared", "nested", "disjoint"],
)
def test_uncrossing_bug_exits_3(tmp_path, capsys, monkeypatch, text, message):
    # two parallel split demands that skip uncrossing: the reduction meets
    # a state no input can cause, a broken guarantee
    path = tmp_path / "r.txt"
    path.write_text(text)
    monkeypatch.setattr("ringload.reduce.uncross_parallel", lambda s: (s, ()))
    with pytest.raises(GuaranteeViolated, match=message):
        ringload.to_crossing_form(load_input(str(path)).general)
    code, _, err = run(capsys, "round", str(path))
    assert code == 3
    assert re.search(f"guarantee violated: {message}", err)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["round"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["gen", "skutella8", "--eps", "0.5"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        "split 3\npair 2 5\npair 9 3\npair 5 4\n",
        "ring 8\ndemand 1 5 2 1\ndemand 2 6 2 1\ndemand 3 4 1 0\n",
        # two uncrossing exchanges, then m = 2
        "ring 8\ndemand 1 2 4 2\ndemand 1 5 4 3\ndemand 1 8 4 2\ndemand 4 7 4 3\n",
        # split-load gaps up to 27 > D = 11: boost caps fillers repeatedly
        "split 3\npair 10 1\npair 10 1\npair 10 1\n",
        # round_main takes the crossover branch (induced patterns, splice)
        CROSSOVER_TEXT,
    ],
    ids=["split", "ring", "uncrossing", "capping", "crossover"],
)
def test_optimized_interpreter_gives_the_same_output(tmp_path, text):
    # `python -O` strips every assert: the library must still compute
    # the same results without them
    path = tmp_path / "inst.txt"
    path.write_text(text)
    src = str(Path(ringload.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env["PYTHONIOENCODING"] = "utf-8"
    for command in (
        ["round", str(path)],
        ["round", str(path), "--method", "brute"],
        ["verify", str(path)],
        ["boost", str(path), "--check"],
        ["search", "4", "--budget", "1", "--seed", "7"],
        ["search", "8", "--budget", "2", "--seed", "warm", "--denominator", "10"],
    ):
        normal, optimized = (
            subprocess.run(
                [sys.executable, *flags, "-m", "ringload.cli", *command],
                capture_output=True, encoding="utf-8", env=env, cwd=tmp_path,
            )
            for flags in ([], ["-O"])
        )
        assert normal.returncode == 0, normal.stderr
        assert (optimized.returncode, optimized.stdout) == (normal.returncode, normal.stdout)
