"""Command-line front end with JSON input and output.

Each subcommand drives one library entry point and prints its result as
JSON on stdout; ``--json-out FILE`` writes the same document to a file.
Instances are read from ``--input`` (``-`` for stdin).  Exit codes are
a stable contract: 0 success, 2 malformed input, 3 internal invariant
failure, 4 violated precondition, 5 exceeded budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from pathlib import Path
from typing import Any

from .errors import (
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    SchemaError,
)
from .jsonio import (
    Instance,
    cycle_split_to_json,
    instance_to_json,
    loads_instance,
    pair_split_to_json,
    stable_split_to_json,
)
from .necklace import CONTINUOUS_BUDGET, verify_discrete
from .paths import (
    PAIR_BUDGET,
    STATE_BUDGET,
    ColoredPath,
    iter_colorings,
    solve_cycle_split,
    solve_pair_split,
    solve_qstable_bruteforce,
    solve_qstable_power2,
    verify_cycle_split,
    verify_pair_split,
    verify_qstable_split,
)
from .rounding import split_with_advantages
from .signvectors import lambda_table, tucker_verify


def _read_instance(args: argparse.Namespace, kind: str) -> Instance:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        text = Path(args.input).read_text()
    inst = loads_instance(text)
    if inst.kind != kind:
        raise SchemaError(
            f"{args.command} needs a {kind} instance, got kind={inst.kind!r}"
        )
    return inst


def _certify(violations: list[str]) -> dict[str, Any]:
    if violations:
        raise InternalInvariantError(
            f"solver output failed verification: {violations}"
        )
    return {"ok": True, "violations": []}


def cmd_split_path(args: argparse.Namespace) -> dict[str, Any]:
    path = _read_instance(args, "path").path()
    split = solve_pair_split(path, budget=args.budget)
    out = pair_split_to_json(split)
    out["certificate"] = _certify(verify_pair_split(path, split))
    return out


def cmd_split_cycle(args: argparse.Namespace) -> dict[str, Any]:
    path = _read_instance(args, "cycle").path()
    split = solve_cycle_split(path, budget=args.budget)
    out = cycle_split_to_json(split)
    out["certificate"] = _certify(verify_cycle_split(path, split))
    return out


def cmd_split_necklace(args: argparse.Namespace) -> dict[str, Any]:
    inst = _read_instance(args, "necklace")
    neck = inst.necklace(args.q)
    split = split_with_advantages(neck, inst.advantages, budget=args.budget)
    report = _certify(verify_discrete(neck, inst.advantages, split))
    return {"owner": list(split.owner), "cuts": split.cuts, "report": report}


def cmd_split_stable(args: argparse.Namespace) -> dict[str, Any]:
    inst = _read_instance(args, "path")
    path = inst.path()
    q = args.q if args.q is not None else inst.q
    if q is None:
        raise SchemaError("split-stable needs q (in the file or via --q)")
    if q & (q - 1) == 0:
        budget = args.budget if args.budget is not None else PAIR_BUDGET
        split = solve_qstable_power2(path, q, budget=budget)
        method = "composition"
    else:
        budget = args.budget if args.budget is not None else STATE_BUDGET
        split = solve_qstable_bruteforce(
            path, q, enforce_upper=args.enforce_upper, budget=budget
        )
        method = "bruteforce"
    if split is None:
        return {"found": False, "method": method, "q": q}
    out: dict[str, Any] = {"found": True, "method": method}
    out.update(stable_split_to_json(split))
    out["certificate"] = _certify(
        verify_qstable_split(path, q, split, enforce_upper=args.enforce_upper)
    )
    return out


def cmd_tucker_check(args: argparse.Namespace) -> dict[str, Any]:
    path = _read_instance(args, "path").path()
    labels, t = lambda_table(path.classes)
    s = t + path.m
    rep = tucker_verify(labels, path.n, s)
    return {
        "antipodal": rep.antipodal,
        "complementary_pairs": rep.complementary_pairs,
        "t": t,
        "s": s,
        "n": rep.n,
        "ok": rep.ok,
    }


def _surjective_count(n: int, m: int) -> int:
    return sum((-1) ** k * math.comb(m, k) * (m - k) ** n for k in range(m + 1))


def _random_coloring(rng: random.Random, max_n: int, max_m: int) -> ColoredPath:
    n = rng.randint(1, max_n)
    raw = [rng.randint(1, max_m) for _ in range(n)]
    relabel: dict[int, int] = {}
    return ColoredPath(tuple(relabel.setdefault(c, len(relabel) + 1) for c in raw))


def cmd_conjecture_scan(args: argparse.Namespace) -> dict[str, Any]:
    q, max_n, max_m = args.q, args.max_n, args.max_m
    budget = args.budget if args.budget is not None else STATE_BUDGET

    if args.samples is not None:
        rng = random.Random(args.seed)
        paths = [_random_coloring(rng, max_n, max_m) for _ in range(args.samples)]
        worst = sum((q + 1) ** p.n for p in paths)
        batches = [(f"sample batch {i // 250 + 1}", paths[i : i + 250])
                   for i in range(0, len(paths), 250)]
        mode = "random"
    else:
        worst = sum(
            sum(_surjective_count(n, m) for m in range(1, min(max_m, n) + 1))
            * (q + 1) ** n
            for n in range(1, max_n + 1)
        )
        batches = ((f"n={n}", iter_colorings(n, max_m)) for n in range(1, max_n + 1))
        mode = "exhaustive"
    if worst > budget:
        raise BudgetExceededError(
            f"scan would examine up to {worst} assignments, budget is {budget}"
        )

    scanned = found = skipped = 0
    counterexamples: list[dict[str, Any]] = []
    for label, batch in batches:
        for path in batch:
            # removing q-1 vertices per color needs that many to exist
            if any(len(cls) < q - 1 for cls in path.classes):
                skipped += 1
                continue
            scanned += 1
            split = solve_qstable_bruteforce(path, q, budget=budget)
            if split is None:
                counterexamples.append(
                    instance_to_json(Instance(kind="path", colors=path.colors, q=q))
                )
            else:
                found += 1
        print(
            f"{label}: scanned={scanned} found={found} skipped={skipped}",
            file=sys.stderr,
        )
    return {
        "q": q,
        "max_n": max_n,
        "max_m": max_m,
        "mode": mode,
        "scanned": scanned,
        "found": found,
        "skipped": skipped,
        "counterexamples": counterexamples,
    }


def _q_at_least_2(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("q must be at least 2")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="fairsplit",
        description="Fair splitting of colored paths, cycles, and necklaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, func, help_text: str, *, needs_input: bool = True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if needs_input:
            p.add_argument(
                "--input", required=True, metavar="FILE",
                help="JSON instance file, or - for stdin",
            )
        p.add_argument(
            "--json-out", metavar="FILE",
            help="also write the JSON result to FILE",
        )
        p.set_defaults(func=func)
        return p

    for name, func, help_text in (
        ("split-path", cmd_split_path,
         "split a colored path into two independent sets, one removal per color"),
        ("split-cycle", cmd_split_cycle,
         "split a colored cycle; one output set independent in the cycle"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--budget", type=_positive_int, default=PAIR_BUDGET, metavar="N",
                       help=f"removal-vector budget for the pair-split search "
                            f"(default {PAIR_BUDGET})")

    p = add("split-necklace", cmd_split_necklace,
            "fair whole-bead necklace splitting with chosen advantaged thieves")
    p.add_argument("--q", type=_q_at_least_2, help="number of thieves (overrides the file)")
    p.add_argument("--budget", type=_positive_int, default=CONTINUOUS_BUDGET, metavar="N",
                   help=f"node budget for the depth-first necklace search "
                        f"(default {CONTINUOUS_BUDGET})")

    p = add("split-stable", cmd_split_stable,
            "q-stable split of a colored path (composition for powers of two)")
    p.add_argument("--q", type=_q_at_least_2, help="number of classes (overrides the file)")
    p.add_argument("--enforce-upper", action="store_true",
                   help="also require the per-color upper bound")
    p.add_argument("--budget", type=_positive_int, metavar="N",
                   help=f"removal vectors per pair split for powers of two "
                        f"(default {PAIR_BUDGET}), otherwise worst-case "
                        f"brute-force assignments (default {STATE_BUDGET})")

    add("tucker-check", cmd_tucker_check,
        "machine-check the path labeling against the octahedral Tucker lemma")

    p = add("conjecture-scan", cmd_conjecture_scan,
            "sweep paths for q-stable splits, recording any missing one",
            needs_input=False)
    p.add_argument("--q", type=_q_at_least_2, required=True, help="number of classes")
    p.add_argument("--max-n", type=_positive_int, required=True, help="largest path length")
    p.add_argument("--max-m", type=_positive_int, default=1,
                   help="largest number of colors (default 1)")
    p.add_argument("--samples", type=_positive_int, metavar="K",
                   help="scan K seeded random colorings instead of all of them")
    p.add_argument("--seed", type=int, default=0, help="seed for --samples (default 0)")
    p.add_argument("--budget", type=_positive_int, metavar="N",
                   help=f"worst-case assignment budget (default {STATE_BUDGET})")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, InternalInvariantError, PreconditionError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    text = json.dumps(payload, indent=2)
    print(text)
    if args.json_out:
        Path(args.json_out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
