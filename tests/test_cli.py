"""End-to-end CLI runs, in process via main().

Checks the exit-code contract (0 ok, 2 schema, 3 failed check,
4 precondition, 5 budget), the JSON documents on stdout, --json-out,
stdin input, and that every emitted split re-parses and passes its
verifier.
"""

import importlib
import importlib.util
import io
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from fairsplit import cli, paths, rounding
from fairsplit.cli import _random_coloring, build_parser, main
from fairsplit.errors import SchemaError
from fairsplit.jsonio import (
    cycle_split_from_json,
    loads_instance,
    pair_split_from_json,
    stable_split_from_json,
)
from fairsplit.necklace import DiscreteSplitting, Necklace, verify_discrete
from fairsplit.paths import (
    ColoredPath,
    qstable_split_exists,
    solve_qstable_bruteforce,
    verify_cycle_split,
    verify_pair_split,
    verify_qstable_split,
)
from helpers import iter_colorings, run_cli_capped

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


def posix_stdin(data):
    """A stand-in for sys.stdin on POSIX: UTF-8 text over a byte buffer, line ends kept."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")


def test_split_path_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", posix_stdin(b'{"kind": "path", "colors": [1, 1, 2, 2]}'))
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


@pytest.mark.parametrize("target", ["no_such_dir/result.json", "."])
def test_json_out_that_cannot_be_written_exits_2(capsys, tmp_path, target):
    code, _, err = run(
        capsys,
        "split-path",
        "--input", fixture("path_small.json"),
        "--json-out", str(tmp_path / target),
    )
    assert code == 2 and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["split-path", "--input", fixture("path_small.json")],
    ["split-cycle", "--input", fixture("cycle_small.json")],
    ["split-necklace", "--input", fixture("necklace_q3.json")],
    ["split-stable", "--input", fixture("stable_pow2.json")],
    ["split-stable", "--input", fixture("path_small.json"), "--q", "3"],
    ["tucker-check", "--input", fixture("path_small.json")],
    ["conjecture-scan", "--q", "3", "--max-n", "4"],
])
def test_every_command_prints_one_top_level_key_per_line(capsys, argv):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    inner = lines[1:-1]
    keys = []
    for i, line in enumerate(inner):
        assert line.startswith('  "') and line.endswith(",") == (i < len(inner) - 1)
        entry = json.loads("{" + line.removesuffix(",") + "}")
        assert len(entry) == 1
        keys += entry
    assert keys == list(json.loads("\n".join(lines)))


def test_readme_split_necklace_example_prints_the_readme_block(capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(
        r"\$ echo '(.*)' \\\n\s+\| fairsplit split-necklace --input -\n(.*?)\n```", readme, re.S
    )
    assert example
    monkeypatch.setattr("sys.stdin", posix_stdin(example[1].encode()))
    assert main(["split-necklace", "--input", "-"]) == 0
    assert capsys.readouterr().out == example[2] + "\n"


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"kind": "path", "colors": [' + "9" * 5000 + "]}",
    '{"kind": "path", "colors": [1, 1], "q": ' + "9" * 5000 + "}",
], ids=["deep-nesting", "long-color", "long-q"])
def test_hostile_json_exits_2(text):
    # nesting past the recursion limit, and integer literals past the
    # interpreter's int-digit limit, fail inside json.loads
    code, _, err, _ = run_cli_capped(["split-path", "--input", "-"], text)
    assert code == 2 and "error:" in err and "Traceback" not in err, err


def test_kind_mismatch_is_schema_error(capsys):
    code, _, err = run(capsys, "split-path", "--input", fixture("cycle_small.json"))
    assert code == 2 and "error:" in err


def test_non_utf8_file_is_schema_error(capsys, tmp_path):
    target = tmp_path / "path.json"
    target.write_bytes(b'{"kind": "path", "colors": [1, 1, 2, 2]}\xff')
    code, _, err = run(capsys, "split-path", "--input", str(target))
    assert code == 2 and "not valid UTF-8" in err and "Traceback" not in err


def outcome(capsys, argv=None):
    """(exit code, stdout, stderr) of main(argv), argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def full_parser_outcome(capsys, monkeypatch, argv):
    """outcome() with every argv parsed by the full parser, then run by args.func."""
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse_args", lambda a: build_parser().parse_args(a))
        return outcome(capsys, argv)


ARGV_TABLE = [
    [], ["-h"], ["--help"], ["frobnicate"], ["frobnicate", "--input", "PATH"],
    ["--input", "PATH", "split-path"], ["split"],
    *([command, "-h"] for command in (
        "split-path", "split-cycle", "split-necklace", "split-stable",
        "tucker-check", "conjecture-scan",
    )),
    ["split-path"], ["split-path", "--input"], ["split-path", "--input", "PATH", "--budget", "0"],
    ["split-path", "--input", "PATH", "--budget", "x"],
    ["split-necklace", "--input", "NECKLACE", "--q", "1"],
    ["split-path", "--input=PATH"], ["split-path", "--inp", "PATH"],
    ["split-path", "--input", "PATH", "--frob"], ["split-path", "--input", "PATH", "-x"],
    ["split-path", "--input", "PATH", "extra"], ["split-path", "extra", "--input", "PATH"],
    ["split-path", "--input", "PATH", "-h"], ["split-path", "-h", "extra"],
    ["split-path", "--", "--input", "PATH"],
    ["split-path", "--input", "PATH", "--input", "NECKLACE"],
    ["split-path", "--json-out", "OUT", "--input", "PATH"],
    ["split-path", "--input", "PATH", "--json-out", "OUT"],
    ["split-path", "--input", "PATH", "--json-out", "OUT", "more"],
    ["split-cycle", "--input", "CYCLE"], ["split-stable", "--input", "PATH", "--q", "3"],
    ["split-stable", "--input", "PATH", "--q", "3", "--enforce-upper", "--budget", "2"],
    ["split-necklace", "--input", "NECKLACE"], ["tucker-check", "--input", "PATH"],
    ["tucker-check", "--input", "PATH", "--q", "3"],
    ["conjecture-scan", "--q", "3", "--max-n", "4", "--max-m", "2"],
    ["conjecture-scan", "--q", "3", "--max-n", "4", "--samples", "5", "--seed", "-1"],
    ["conjecture-scan", "--q", "3"],
    ["conjecture-scan", "--input", "PATH", "--q", "3", "--max-n", "2"],
]


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=" ".join)
def test_main_answers_every_argv_as_the_full_parser_does(capsys, monkeypatch, tmp_path, argv):
    names = {
        "PATH": fixture("path_small.json"), "CYCLE": fixture("cycle_small.json"),
        "NECKLACE": fixture("necklace_q3.json"), "OUT": str(tmp_path / "out.json"),
    }
    argv = [re.sub("PATH|CYCLE|NECKLACE|OUT", lambda m: names[m[0]], a) for a in argv]
    assert outcome(capsys, argv) == full_parser_outcome(capsys, monkeypatch, argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["split-path", "--input", "PATH"],
                                  ["split-path", "--input", "PATH", "extra"]])
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv):
    argv = [fixture("path_small.json") if a == "PATH" else a for a in argv]
    expected = outcome(capsys, argv)
    monkeypatch.setattr("sys.argv", ["anything", *argv])
    assert outcome(capsys) == expected


def text_mode_read_instance(args, kind):
    """``cli._read_instance`` in text mode: the oracle for its binary read.

    A file is read through pathlib in text mode, stdin through its own
    text layer.
    """
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"input is not valid UTF-8: {exc}") from exc
    inst = loads_instance(text)
    if inst.kind != kind:
        raise SchemaError(f"{args.command} needs a {kind} instance, got kind={inst.kind!r}")
    return inst


def text_mode_outcome(capsys, monkeypatch, argv):
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_instance", text_mode_read_instance)
        return outcome(capsys, argv)


VALID_READS = {
    "plain": b'{"kind": "path", "colors": [1, 1, 2, 2]}',
    "bom": b'\xef\xbb\xbf{"kind": "path", "colors": [1, 1, 2, 2]}',
    "crlf": b'{\r\n  "kind": "path",\r\n  "colors": [1, 1, 2, 2]\r\n}\r\n',
    "crlf-malformed": b'{\r\n  "kind": "path",\r\n  "colors": [1, 1, 2, 2,]\r\n}\r\n',
    "cr": b'{\r  "kind": "path",\r  "colors": [1, 1, 2, 2]\r}\r',
    "cr-malformed": b'{\r  "kind": "path",\r\r  "colors": [1, 1, 2, 2,]\r}',
    "mixed-malformed": b'{\n\r\n\r"kind":\r\n "path", "colors": [1, x]}',
    "non-ascii": '{"kind": "path", "colors": [1, 1, 2, 2], "f\u00fcr": "\u2603"}'.encode(),
    "cycle-crlf": b'{"kind": "cycle",\r\n "colors": [1, 1, 2, 2, 1]}',
    "empty": b"",
}
INVALID_UTF8_READS = {
    "trailing-ff": b'{"kind": "path", "colors": [1, 1, 2, 2]}\xff',
    "ff-after-crlf": b'{\r\n"kind": "path",\r\n\xff}',
    "truncated": b'{"kind": "p\xc3',
    "surrogate": b'{"kind": "\xed\xa0\x80"}',
}


@pytest.mark.parametrize("data", [*VALID_READS.values(), *INVALID_UTF8_READS.values()],
                         ids=[*VALID_READS, *INVALID_UTF8_READS])
def test_file_reads_as_in_text_mode(capsys, monkeypatch, tmp_path, data):
    target = tmp_path / "instance.json"
    target.write_bytes(data)
    argv = ["split-path", "--input", str(target)]
    assert outcome(capsys, argv) == text_mode_outcome(capsys, monkeypatch, argv)


@pytest.mark.parametrize("name", [
    "inst.json", "./inst.json", "d//inst.json", "d/./inst.json", "d/.", "d/./", "./d/../inst.json",
    "inst.json/", "d/inst.json//", ".inst.json", "d/.inst.json", "", ".", "./", "d", "d/",
    "no_such.json", "./no_such.json", "d//no_such.json", "d/./no_such.json", "no_such/",
    "inst.json/x", "ABS", "//ABS",
])
def test_file_names_resolve_as_pathlib_spells_them(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for target in ("inst.json", ".inst.json", "d/inst.json", "d/.inst.json"):
        (tmp_path / target).write_text('{"kind": "path", "colors": [1, 1, 2, 2]}')
    name = name.replace("ABS", str(tmp_path / "inst.json").lstrip("/"))
    argv = ["split-path", "--input", name]
    assert outcome(capsys, argv) == text_mode_outcome(capsys, monkeypatch, argv)


@pytest.mark.parametrize("data", VALID_READS.values(), ids=VALID_READS)
def test_stdin_reads_as_its_text_layer_did(capsys, monkeypatch, data):
    argv = ["split-path", "--input", "-"]
    monkeypatch.setattr("sys.stdin", posix_stdin(data))
    new = outcome(capsys, argv)
    monkeypatch.setattr("sys.stdin", posix_stdin(data))
    assert new == text_mode_outcome(capsys, monkeypatch, argv)


@pytest.mark.parametrize("data", INVALID_UTF8_READS.values(), ids=INVALID_UTF8_READS)
def test_invalid_utf8_on_stdin_reads_as_from_a_file(capsys, monkeypatch, tmp_path, data):
    target = tmp_path / "instance.json"
    target.write_bytes(data)
    from_file = outcome(capsys, ["split-path", "--input", str(target)])
    monkeypatch.setattr("sys.stdin", posix_stdin(data))
    assert outcome(capsys, ["split-path", "--input", "-"]) == from_file
    assert from_file[0] == 2 and "input is not valid UTF-8" in from_file[2]


@pytest.mark.parametrize("encoding", [None, "utf-8:strict", "utf-8:surrogateescape", "latin-1"])
def test_invalid_utf8_on_real_stdin_exits_2_in_every_locale(monkeypatch, encoding):
    # a strict UTF-8 stdin once raised UnicodeDecodeError here, a traceback and exit 1
    if encoding is None:
        monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    else:
        monkeypatch.setenv("PYTHONIOENCODING", encoding)
    code, out, err, _ = run_cli_capped(["split-path", "--input", "-"], b"\xff{}")
    assert (code, out) == (2, "")
    assert err == (
        "error: input is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


def test_real_stdin_keeps_carriage_returns_in_json_error_positions():
    raw = '{\r\n  "kind": "path",\r\n  "colors": [1, 1, 2, 2,]\r\n}'
    code, _, err, _ = run_cli_capped(["split-path", "--input", "-"], raw)
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(raw)
    assert code == 2 and err == f"error: input is not valid JSON: {exc.value}\n"


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


def test_split_necklace_failing_answer_exits_3(capsys, monkeypatch):
    # the CLI's certificate is the pipeline's own check: a wrong answer exits 3
    original = rounding._round_color
    monkeypatch.setattr(
        rounding, "_round_color", lambda g, adv: original(g, {t % g.q + 1 for t in adv})
    )
    code, out, err = run(capsys, "split-necklace", "--input", fixture("necklace_q3.json"))
    assert code == 3 and out is None
    assert "advantage color 1" in err


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


def test_split_necklace_duplicate_thief_exits_2(capsys, monkeypatch):
    text = b'{"kind": "necklace", "colors": [1, 1, 1, 1, 1], "q": 3, "advantages": {"1": [2, 2]}}'
    monkeypatch.setattr("sys.stdin", posix_stdin(text))
    code, _, err = run(capsys, "split-necklace", "--input", "-")
    assert code == 2
    assert err == "error: duplicate thieves in the advantage list of color 1\n"


def test_split_necklace_huge_q_exits_4_quickly(capsys, tmp_path):
    target = tmp_path / "necklace.json"
    target.write_text(json.dumps({
        "kind": "necklace", "colors": [1, 2, 1, 2],
        "advantages": {"1": [1, 2], "2": [1, 2]},
    }))
    start = time.perf_counter()
    code, _, err = run(capsys, "split-necklace", "--input", str(target), "--q", str(10**9))
    assert time.perf_counter() - start < 0.5
    assert code == 4 and "color 1 has r=2" in err


@pytest.mark.parametrize("command, kind", [
    ("split-path", "path"),
    ("split-cycle", "cycle"),
    ("split-stable", "path"),
    ("split-necklace", "necklace"),
    ("tucker-check", "path"),
])
def test_huge_color_index_exits_2_quickly(command, kind):
    # the coloring rule must not build a set up to the largest color
    inst = json.dumps({"kind": kind, "colors": [1, 10**11], "q": 3})
    code, _, err, elapsed = run_cli_capped([command, "--input", "-"], inst)
    assert code == 2 and "Traceback" not in err, err
    assert elapsed < 2.0


@pytest.mark.parametrize("colors", [[0], [-1], [2], [1, 3]])
def test_invalid_coloring_exits_2(colors):
    inst = json.dumps({"kind": "path", "colors": colors})
    code, _, err, _ = run_cli_capped(["split-path", "--input", "-"], inst)
    assert code == 2 and "Traceback" not in err, err


def test_split_necklace_more_sub_beads_than_budget_exits_5_quickly():
    # n*q = 10^9 sub-beads: the search stops before it builds them
    inst = json.dumps({
        "kind": "necklace", "colors": [1], "q": 10**9, "advantages": {"1": [1]},
    })
    code, _, err, elapsed = run_cli_capped(["split-necklace", "--input", "-"], inst)
    assert code == 5 and "candidates" in err and "Traceback" not in err, err
    assert elapsed < 2.0


def test_split_necklace_q_in_the_thousands_fits_in_512_mb():
    # the search must not build a table of q x q thieves
    inst = json.dumps({
        "kind": "necklace", "colors": [1], "q": 5000, "advantages": {"1": [1]},
    })
    code, out, err, _ = run_cli_capped(
        ["split-necklace", "--input", "-"], inst, memory_mb=512
    )
    assert code == 0 and "Traceback" not in err, err
    owner = json.loads(out)["owner"]
    assert verify_discrete(Necklace((1,), 5000), {1: [1]}, DiscreteSplitting(owner)) == []


def test_split_necklace_on_a_600_bead_sharing_path_exits_0():
    # the sharing graph is one path of 1200 edges; cycle cancellation must
    # cross it without a recursion frame per vertex
    n = 600
    inst = json.dumps({
        "kind": "necklace", "colors": [1] * n, "q": n + 1,
        "advantages": {"1": list(range(1, n + 1))},
    })
    code, out, err, _ = run_cli_capped(["split-necklace", "--input", "-"], inst)
    assert code == 0 and "Traceback" not in err, err
    advantages = {1: range(1, n + 1)}
    split = DiscreteSplitting(json.loads(out)["owner"])
    assert verify_discrete(Necklace((1,) * n, n + 1), advantages, split) == []


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


def test_split_stable_bruteforce_without_a_split_exits_0(capsys, monkeypatch, caplog):
    # no small path lacks a split, so the search is stubbed to finish empty
    monkeypatch.setattr("fairsplit.paths._qstable_search", lambda *args: iter(()))
    with caplog.at_level("WARNING", logger="fairsplit.paths"):
        code = main(["split-stable", "--input", fixture("path_small.json"), "--q", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {"found": False, "method": "bruteforce", "q": 3}
    assert ["counterexample candidate" in r.getMessage() for r in caplog.records] == [True]


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


def test_random_coloring_matches_randint_draws():
    # randrange(k) + 1 draws from the same stream as randint(1, k), so
    # each --seed keeps the colorings it scanned before
    def reference(rng, max_n, max_m):
        n = rng.randint(1, max_n)
        raw = [rng.randint(1, max_m) for _ in range(n)]
        relabel = {}
        return tuple(relabel.setdefault(c, len(relabel) + 1) for c in raw)

    for seed in range(50):
        for max_n, max_m in ((12, 3), (12, 2), (6, 1), (30, 7)):
            got, want = random.Random(seed), random.Random(seed)
            assert [_random_coloring(got, max_n, max_m) for _ in range(20)] == [
                reference(want, max_n, max_m) for _ in range(20)
            ], (seed, max_n, max_m)


def test_conjecture_scan_sample_longer_than_budget_exits_5_quickly():
    # a path of n vertices needs n + 1 search nodes, so the scan stops
    # after drawing n and before drawing up to 10^9 colors
    code, _, err, elapsed = run_cli_capped(
        ["conjecture-scan", "--q", "3", "--samples", "1", "--max-n", str(10**9)],
        timeout=20.0,
    )
    assert code == 5 and "budget" in err and "Traceback" not in err, err
    assert elapsed < 5.0


def test_conjecture_scan_sample_with_many_colors_is_counted_in_one_pass():
    # seed 0 draws a path of about 10^5 vertices and as many colors;
    # the q-1 skip must not count each color in its own pass
    code, out, err, elapsed = run_cli_capped(
        ["conjecture-scan", "--q", "3", "--samples", "1", "--max-n", "200000",
         "--max-m", "200000", "--seed", "0"],
        timeout=20.0,
    )
    assert code == 0 and "Traceback" not in err, err
    assert json.loads(out)["skipped"] == 1
    assert elapsed < 5.0


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


def test_conjecture_scan_budget_stop_names_first_coloring(capsys):
    code, _, err = run(
        capsys,
        "conjecture-scan", "--q", "3", "--max-n", "12", "--max-m", "3", "--budget", "100",
    )
    assert code == 5
    assert err.splitlines()[-2] == "n=8: scanned=4093 found=4093 skipped=4743"
    assert err.rstrip().endswith("stopped on colors [1, 1, 2, 1, 2, 2, 1, 2, 2]")


def scan_oracle(q, max_n, max_m, solve):
    """conjecture-scan's answer and progress lines, one search per coloring."""
    scanned = found = skipped = 0
    counterexamples, progress = [], []
    for n in range(1, max_n + 1):
        for path in iter_colorings(n, max_m):
            if min(path.class_sizes) < q - 1:
                skipped += 1
            elif solve(path, q) is None:
                scanned += 1
                counterexamples.append({"kind": "path", "colors": list(path.colors), "q": q})
            else:
                scanned += 1
                found += 1
        progress.append(f"n={n}: scanned={scanned} found={found} skipped={skipped}")
    answer = {
        "q": q, "max_n": max_n, "max_m": max_m, "mode": "exhaustive",
        "scanned": scanned, "found": found, "skipped": skipped,
        "counterexamples": counterexamples,
    }
    return answer, progress


def scan_progress(err):
    return [line for line in err.splitlines() if line.startswith("n=")]


@pytest.mark.parametrize("max_m", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_conjecture_scan_matches_per_coloring_oracle(capsys, q, max_m):
    code, out, err = run(
        capsys, "conjecture-scan", "--q", str(q), "--max-n", "8", "--max-m", str(max_m),
    )
    assert code == 0
    answer, progress = scan_oracle(q, 8, max_m, solve_qstable_bruteforce)
    assert out == answer
    assert scan_progress(err) == progress


def test_conjecture_scan_lists_every_relabeling_of_a_counterexample(capsys, monkeypatch):
    # a stub that finds no split for two class-size patterns, both blind
    # to color names: ten n=5 classes of sizes {2, 3}, 2! colorings
    # each, and sixty n=6 classes of sizes {1, 2, 3}, 3! colorings each
    calls = []

    def stub(colors, q, **kwargs):
        calls.append(colors)
        if tuple(sorted(map(colors.count, set(colors)))) in {(2, 3), (1, 2, 3)}:
            return False
        return qstable_split_exists(colors, q, **kwargs)

    monkeypatch.setattr("fairsplit.cli.qstable_split_exists", stub)
    code, out, err = run(capsys, "conjecture-scan", "--q", "2", "--max-n", "6", "--max-m", "3")
    assert code == 0
    scanned_classes = len(calls)
    calls.clear()
    answer, progress = scan_oracle(2, 6, 3, lambda path, q: stub(path.colors, q) or None)
    assert out == answer
    assert scan_progress(err) == progress
    assert len(out["counterexamples"]) == 10 * 2 + 60 * 6
    # one search per class of relabelings, S(n, 1) + S(n, 2) + S(n, 3)
    # at each n = 1..6, rather than one per coloring
    assert scanned_classes == sum([1, 2, 5, 14, 41, 122]) < out["scanned"]
    assert len(calls) == out["scanned"]


def test_conjecture_scan_lists_relabelings_in_scan_order(capsys, monkeypatch, caplog):
    # the search finishes empty on two n=4 classes, whose relabelings
    # interleave: (1,1,2,2) and (2,2,1,1), (1,2,2,1) and (2,1,1,2)
    search = paths._qstable_search

    def stub(colors, *args):
        return iter(()) if tuple(colors) in {(1, 1, 2, 2), (1, 2, 2, 1)} else search(colors, *args)

    monkeypatch.setattr("fairsplit.paths._qstable_search", stub)
    with caplog.at_level("WARNING", logger="fairsplit.paths"):
        code, out, _ = run(capsys, "conjecture-scan", "--q", "3", "--max-n", "4", "--max-m", "2")
    assert code == 0
    assert [c["colors"] for c in out["counterexamples"]] == [
        [1, 1, 2, 2], [1, 2, 2, 1], [2, 1, 1, 2], [2, 2, 1, 1],
    ]
    assert out["found"] == out["scanned"] - 4
    assert len(caplog.records) == 2  # one search per class


def test_conjecture_scan_long_one_color_paths(capsys):
    code, out, _ = run(
        capsys,
        "conjecture-scan", "--q", "3", "--max-n", "14", "--max-m", "1",
    )
    assert code == 0
    assert out["found"] == out["scanned"] == 13  # n=1 has too few vertices
    assert out["counterexamples"] == []


def load_tracing():
    """``perfbench/tracing.py``, loaded by path: perfbench is no package."""
    tracing_py = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", tracing_py)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_patches_resolve():
    # perfbench/tracing.py times each layer by patching these names, so a
    # rename would break ``perfbench/run.py --trace 1``
    tracing = load_tracing()
    missing = [
        (module, attr)
        for module, attr, _ in tracing.PATCHES
        if not hasattr(importlib.import_module(f"fairsplit.{module}"), attr)
    ]
    assert tracing.PATCHES and missing == []


# per benchmark workload: fixture requests of its commands, and the traced
# rows those requests must reach
TRACED_ROWS = {
    "necklace": (
        [["split-necklace", "--input", fixture("necklace_q3.json")]],
        ["rounding.split_with_advantages", "matching.find_b_factor", "jsonio.loads_instance"],
    ),
    "tucker": (
        [["tucker-check", "--input", fixture("path_small.json")]],
        ["signvectors.lambda_table", "signvectors.tucker_verify"],
    ),
    "paths": (
        [["split-path", "--input", fixture("path_small.json")],
         ["split-cycle", "--input", fixture("cycle_small.json")]],
        ["paths.solve_pair_split", "paths.solve_cycle_split", "paths.verify", "jsonio.to_json"],
    ),
    "scan": (
        [["split-stable", "--input", fixture("path_small.json"), "--q", "3"]],
        ["paths.solve_qstable_bruteforce"],
    ),
}


@pytest.mark.parametrize("workload", sorted(TRACED_ROWS))
def test_traced_rows_see_their_layers(capsys, workload):
    # a refactor that moves a layer's work off the patched name turns its
    # benchmark row to 0; these rows must keep recording calls
    tracer = load_tracing().Tracer()
    argvs, rows = TRACED_ROWS[workload]
    with tracer.patched():
        for argv in argvs:
            assert main(argv) == 0, argv
    capsys.readouterr()
    called = {span[0] for span in tracer.spans}
    assert [row for row in rows if row not in called] == []
