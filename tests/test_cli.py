"""End-to-end CLI runs, in process via main().

Checks the exit-code contract (0 ok, 2 schema, 4 precondition,
5 budget), the JSON documents on stdout, --json-out, stdin input, and
that every emitted split re-parses and passes its verifier.
"""

import io
import json
from pathlib import Path

import pytest

from fairsplit.cli import build_parser, main
from fairsplit.jsonio import (
    cycle_split_from_json,
    pair_split_from_json,
    stable_split_from_json,
)
from fairsplit.necklace import DiscreteSplitting, Necklace, verify_discrete
from fairsplit.paths import (
    ColoredPath,
    verify_cycle_split,
    verify_pair_split,
    verify_qstable_split,
)

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if code == 0 else None
    return code, payload, captured.err


def fixture(name):
    return str(FIXTURES / name)


def test_split_path(capsys):
    code, out, _ = run(capsys, "split-path", "--input", fixture("path_small.json"))
    assert code == 0
    assert out["removed"] == {"1": 1, "2": 3}
    assert out["s1"] == [2] and out["s2"] == [4]
    assert out["certificate"] == {"ok": True, "violations": []}
    split = pair_split_from_json(out)
    assert verify_pair_split(ColoredPath((1, 1, 2, 2)), split) == []


def test_split_path_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"kind": "path", "colors": [1, 1, 2, 2]}')
    )
    code, out, _ = run(capsys, "split-path", "--input", "-")
    assert code == 0 and out["removed"] == {"1": 1, "2": 3}


def test_json_out_mirrors_stdout(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys,
        "split-path",
        "--input", fixture("path_small.json"),
        "--json-out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text()) == out


def test_kind_mismatch_is_schema_error(capsys):
    code, _, err = run(capsys, "split-path", "--input", fixture("cycle_small.json"))
    assert code == 2 and "error:" in err


def test_missing_file_is_schema_error(capsys):
    code, _, err = run(capsys, "split-path", "--input", fixture("no_such.json"))
    assert code == 2 and "error:" in err


def test_malformed_json_is_schema_error(capsys):
    code, _, err = run(capsys, "split-path", "--input", fixture("malformed.json"))
    assert code == 2 and "not valid JSON" in err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_split_cycle(capsys):
    code, out, _ = run(capsys, "split-cycle", "--input", fixture("cycle_small.json"))
    assert code == 0
    assert out["certificate"]["ok"] is True
    split = cycle_split_from_json(out)
    assert verify_cycle_split(ColoredPath((1, 1, 2, 2, 1)), split) == []


def test_split_necklace(capsys):
    code, out, _ = run(capsys, "split-necklace", "--input", fixture("necklace_q3.json"))
    assert code == 0
    assert out["owner"] == [1, 2, 3, 3]
    assert out["cuts"] == 2
    assert out["report"]["ok"] is True


def test_split_necklace_q_flag(capsys):
    code, out, _ = run(
        capsys,
        "split-necklace", "--input", fixture("necklace_no_q.json"), "--q", "2",
    )
    assert code == 0 and out["cuts"] <= 2


def test_split_necklace_needs_q(capsys):
    code, _, err = run(
        capsys, "split-necklace", "--input", fixture("necklace_no_q.json")
    )
    assert code == 2 and "need" in err


def test_split_necklace_bad_remainder_exit_4(capsys):
    code, _, err = run(capsys, "split-necklace", "--input", fixture("necklace_r2.json"))
    assert code == 4 and "color 1 has r=2" in err


def test_split_necklace_budget_exit_5(capsys):
    code, _, err = run(
        capsys,
        "split-necklace", "--input", fixture("necklace_q3.json"), "--budget", "1",
    )
    assert code == 5 and "candidates" in err


@pytest.mark.parametrize("n, q, flags", [
    (20, 20, ["--budget", "1000"]),
    (300, 4, []),
])
def test_split_necklace_one_color(capsys, tmp_path, n, q, flags):
    target = tmp_path / "necklace.json"
    target.write_text(json.dumps({"kind": "necklace", "colors": [1] * n, "q": q}))
    code, out, err = run(capsys, "split-necklace", "--input", str(target), *flags)
    assert code == 0 and "Traceback" not in err
    assert out["report"]["ok"] is True and out["cuts"] == q - 1
    neck = Necklace((1,) * n, q)
    assert verify_discrete(neck, None, DiscreteSplitting(out["owner"])) == []


def test_split_stable_power_of_two(capsys):
    code, out, _ = run(
        capsys,
        "split-stable",
        "--input", fixture("stable_pow2.json"),
        "--enforce-upper",
    )
    assert code == 0
    assert out["found"] is True and out["method"] == "composition"
    assert out["certificate"]["ok"] is True
    split = stable_split_from_json(out)
    path = ColoredPath((1,) * 8 + (2,) * 8)
    assert verify_qstable_split(path, 4, split, enforce_upper=True) == []


def test_split_stable_bruteforce(capsys):
    code, out, _ = run(
        capsys,
        "split-stable", "--input", fixture("necklace_no_q.json"), "--q", "3",
    )
    # path instances only; reusing the necklace file must fail the kind check
    assert code == 2
    code, out, _ = run(
        capsys,
        "split-stable", "--input", fixture("path_small.json"), "--q", "3",
    )
    assert code == 0
    assert out["method"] == "bruteforce" and out["found"] is True
    split = stable_split_from_json(out)
    assert verify_qstable_split(ColoredPath((1, 1, 2, 2)), 3, split) == []


def test_split_stable_needs_q(capsys):
    code, _, err = run(capsys, "split-stable", "--input", fixture("path_small.json"))
    assert code == 2 and "needs q" in err


def test_split_stable_budget_exit_5(capsys):
    code, _, err = run(
        capsys,
        "split-stable",
        "--input", fixture("path_small.json"),
        "--q", "3",
        "--budget", "1",
    )
    assert code == 5 and "budget" in err


@pytest.mark.parametrize("colors", [[1, 2, 3] * 10, [1] * 1500])
def test_split_stable_q3_long_paths(capsys, tmp_path, colors):
    # both are past any worst-case bound of (q+1)^n, and 1500 vertices
    # are past Python's recursion limit
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"kind": "path", "colors": colors}))
    code, out, err = run(capsys, "split-stable", "--input", str(target), "--q", "3")
    assert code == 0 and "Traceback" not in err
    assert out["found"] is True and out["certificate"]["ok"] is True
    split = stable_split_from_json(out)
    assert verify_qstable_split(ColoredPath(tuple(colors)), 3, split) == []


@pytest.mark.parametrize("command, kind, flags", [
    ("split-path", "path", []),
    ("split-cycle", "cycle", []),
    ("split-stable", "path", ["--q", "4"]),
])
def test_pair_split_budget_exit_5(capsys, tmp_path, command, kind, flags):
    # the lex-first pair split of this path is the third removal vector
    target = tmp_path / "instance.json"
    target.write_text(json.dumps({"kind": kind, "colors": [1, 1, 2, 2, 1, 2]}))
    code, _, err = run(capsys, command, "--input", str(target), *flags, "--budget", "1")
    assert code == 5 and "budget" in err and "Traceback" not in err
    code, _, _ = run(capsys, command, "--input", str(target), *flags)
    assert code == 0


def test_repeated_main_calls_share_no_state(capsys, tmp_path):
    assert build_parser() is build_parser()
    target = tmp_path / "result.json"
    code, _, _ = run(
        capsys,
        "split-path", "--input", fixture("path_small.json"), "--json-out", str(target),
    )
    assert code == 0 and target.exists()
    target.unlink()
    code, _, _ = run(capsys, "split-path", "--input", fixture("path_small.json"))
    assert code == 0 and not target.exists()

    with pytest.raises(SystemExit) as exc:
        main(["split-path"])  # --input missing
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "split-path", "--input", fixture("path_small.json"))
    assert code == 0 and out["removed"] == {"1": 1, "2": 3}


def test_tucker_check(capsys):
    code, out, _ = run(capsys, "tucker-check", "--input", fixture("path_small.json"))
    assert code == 0
    assert out == {
        "antipodal": True,
        "complementary_pairs": 0,
        "t": 2,
        "s": 4,
        "n": 4,
        "ok": True,
    }


@pytest.mark.parametrize("n", [9, 12])
def test_tucker_check_up_to_the_cap(capsys, tmp_path, n):
    colors = [i % 3 + 1 for i in range(n)]
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"kind": "path", "colors": colors}))
    code, out, err = run(capsys, "tucker-check", "--input", str(target))
    assert code == 0 and "Traceback" not in err
    assert out["n"] == n and out["ok"] is True and out["antipodal"] is True
    assert out["complementary_pairs"] == 0
    assert out["s"] == out["t"] + 3 >= n


def test_tucker_check_past_the_cap_exit_5(capsys, tmp_path):
    target = tmp_path / "path.json"
    target.write_text(json.dumps({"kind": "path", "colors": [i % 3 + 1 for i in range(13)]}))
    code, _, err = run(capsys, "tucker-check", "--input", str(target))
    assert code == 5 and "exceeds cap 12" in err and "Traceback" not in err


def test_conjecture_scan_exhaustive(capsys):
    code, out, err = run(
        capsys,
        "conjecture-scan", "--q", "3", "--max-n", "5", "--max-m", "2",
    )
    assert code == 0
    assert out["mode"] == "exhaustive"
    assert out["counterexamples"] == []
    assert out["found"] == out["scanned"] > 0
    assert out["skipped"] > 0  # short color classes are out of scope
    assert "n=5:" in err  # progress goes to stderr


def test_conjecture_scan_random(capsys):
    code, out, _ = run(
        capsys,
        "conjecture-scan",
        "--q", "2",
        "--max-n", "6",
        "--max-m", "2",
        "--samples", "20",
        "--seed", "7",
    )
    assert code == 0
    assert out["mode"] == "random"
    assert out["scanned"] + out["skipped"] == 20
    assert out["counterexamples"] == []


def test_conjecture_scan_budget_exit_5(capsys):
    code, _, err = run(
        capsys,
        "conjecture-scan",
        "--q", "3",
        "--max-n", "12",
        "--max-m", "3",
        "--budget", "100",
    )
    assert code == 5 and "budget" in err


def test_conjecture_scan_long_one_color_paths(capsys):
    code, out, _ = run(
        capsys,
        "conjecture-scan", "--q", "3", "--max-n", "14", "--max-m", "1",
    )
    assert code == 0
    assert out["found"] == out["scanned"] == 13  # n=1 has too few vertices
    assert out["counterexamples"] == []
