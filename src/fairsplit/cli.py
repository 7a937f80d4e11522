"""Command-line front end with JSON input and output.

Each subcommand drives one library entry point and prints its result as
a JSON object on stdout, one top-level key per line; ``--json-out FILE``
writes the same document to a file.  Instances are read as UTF-8 from
``--input`` (``-`` for stdin).  Exit codes are a stable contract:
0 success, 2 malformed input or a file that cannot be read or written,
3 internal invariant failure, 4 violated precondition, 5 exceeded budget.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import random
import sys
from pathlib import Path
from typing import Any, Iterator

from .errors import (
    NODE_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    PreconditionError,
    SchemaError,
)
from .jsonio import (
    Instance,
    cycle_split_to_json,
    discrete_splitting_to_json,
    instance_to_json,
    loads_instance,
    pair_split_to_json,
    stable_split_to_json,
)
from .necklace import verify_discrete  # noqa: F401  not called here; perfbench/tracing.py patches it
from .paths import (
    PAIR_BUDGET,
    iter_canonical_colorings,
    qstable_split_exists,
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
    from_stdin = args.input == "-"
    if from_stdin:
        data = sys.stdin.buffer.read()
    else:
        with open(Path(args.input), "rb") as f:
            data = f.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not valid UTF-8: {exc}") from exc
    # a file reads \r\n and \r as \n, as text mode does, and JSON error
    # positions count characters after that; stdin keeps them, as the
    # text layer of sys.stdin does on POSIX
    if not from_stdin and "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
    # the pipeline checks its answer with the clauses of verify_discrete and
    # raises InternalInvariantError (exit 3) on any violation
    split = split_with_advantages(neck, inst.advantages, budget=args.budget)
    report = {"ok": True, "violations": []}
    return {**discrete_splitting_to_json(split), "cuts": split.cuts, "report": report}


def cmd_split_stable(args: argparse.Namespace) -> dict[str, Any]:
    inst = _read_instance(args, "path")
    path = inst.path()
    q = args.q if args.q is not None else inst.q
    if q is None:
        raise SchemaError("split-stable needs q (in the file or via --q)")
    # each solver keeps its own default budget
    budget = {} if args.budget is None else {"budget": args.budget}
    if q & (q - 1) == 0:
        split = solve_qstable_power2(path, q, **budget)
        method = "composition"
    else:
        split = solve_qstable_bruteforce(path, q, enforce_upper=args.enforce_upper, **budget)
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


def _random_coloring(
    rng: random.Random, max_n: int, max_m: int, budget: int | None = None
) -> tuple[int, ...]:
    n = rng.randint(1, max_n)
    # a search reaches a split of n vertices only through n + 1 nodes, so
    # a path this long stops before its colors are drawn
    if budget is not None and n >= budget:
        raise BudgetExceededError(
            f"a sampled path of {n} vertices needs more than the budget of "
            f"{budget} search nodes; this bounds effort, it does not mean no "
            "split exists"
        )
    # the loop of randrange(max_m), inlined: k-bit draws until one falls
    # below max_m, so each color comes from the stream of randint(1, max_m)
    getrandbits = rng.getrandbits
    k = max_m.bit_length()
    relabel: dict[int, int] = {}
    colors = []
    for _ in range(n):
        r = getrandbits(k)
        while r >= max_m:
            r = getrandbits(k)
        colors.append(relabel.setdefault(r, len(relabel) + 1))
    return tuple(colors)


def _sampled(
    rng: random.Random, count: int, max_n: int, max_m: int, budget: int, least: int
) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """(coloring, 1, False) for each of ``count`` draws that meets the q-1 rule.

    Each coloring is drawn when the scan reaches it and counted in one
    pass, as a sampled path may hold many colors.  The count restates the
    q-1 rule that ``qstable_split_exists`` checks on each kept draw, but
    is cheaper than catching that check's PreconditionError: 20,000 draws
    (seed 1, q=5, max-n 12, max-m 2; 73% fail the rule) took 8.40 -> 9.14
    and 7.51 -> 8.40 us each on a 2-core machine; at q=3 two runs disagreed.
    """
    for _ in range(count):
        colors = _random_coloring(rng, max_n, max_m, budget)
        sizes = [0] * (max(colors) + 1)
        for c in colors:
            sizes[c] += 1
        if min(sizes[1:]) >= least:
            yield colors, 1, False


def _mirror(colors: tuple[int, ...]) -> tuple[int, ...]:
    """The reverse of ``colors``, its colors renumbered by first occurrence."""
    names: dict[int, int] = {}
    # a list first: a tuple grown from a generator is shrunk at the end
    return tuple([names.setdefault(c, len(names) + 1) for c in reversed(colors)])


def _orbits(n: int, max_m: int, least: int) -> Iterator[tuple[tuple[int, ...], int, bool]]:
    """(coloring, weight, twin), one per orbit of relabeling × reversal.

    The orbits are those of the colorings of n vertices with at most
    ``max_m`` colors, each used ``least`` times or more.  A canonical
    coloring stands for its orbit when its mirror is not smaller.  It
    weighs m! for m colors when it is its own mirror; else the orbit
    holds its mirror as a twin, and it weighs 2·m!.
    """
    weights = [math.factorial(m) for m in range(min(max_m, n) + 1)]
    for colors in iter_canonical_colorings(n, max_m, least):
        # build the mirror only as far as it takes to tell it from colors
        names: dict[int, int] = {}
        for c, own in zip(reversed(colors), colors):
            mirrored = names.setdefault(c, len(names) + 1)
            if mirrored != own:
                if mirrored > own:
                    yield colors, 2 * weights[max(colors)], True
                break
        else:
            yield colors, weights[len(names)], False


def _colorings_count(n: int, max_m: int) -> int:
    """The colorings of n vertices with at most ``max_m`` colors, each used.

    m!·S(n, m) of them use exactly m colors: the maps onto m colors,
    counted by inclusion and exclusion.
    """
    return sum(
        (-1) ** k * math.comb(m, k) * (m - k) ** n
        for m in range(1, min(max_m, n) + 1)
        for k in range(m + 1)
    )


def _split_exists(colors: tuple[int, ...], twin: bool, q: int, budget: int) -> bool:
    """The verdict on ``colors``, from its twin when its own search runs out of budget."""
    try:
        return qstable_split_exists(colors, q, budget=budget)
    except BudgetExceededError as exc:
        stop = exc
    if twin:
        try:
            return qstable_split_exists(_mirror(colors), q, budget=budget)
        except BudgetExceededError:
            pass
    # a budget stop decides nothing, so it is never a counterexample
    raise BudgetExceededError(f"{stop}; stopped on colors {list(colors)}") from stop


def _relabelings(colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The m! colorings that differ from ``colors`` by a permutation of its m colors."""
    return [
        tuple(perm[c - 1] for c in colors)
        for perm in itertools.permutations(range(1, max(colors) + 1))
    ]


def cmd_conjecture_scan(args: argparse.Namespace) -> dict[str, Any]:
    q, max_n, max_m = args.q, args.max_n, args.max_m
    # removing q-1 vertices per color needs that many to exist
    least = q - 1

    # each batch covers a count of colorings and holds (coloring, weight,
    # twin) triples for those that meet the q-1 rule: in exhaustive mode
    # one coloring stands for its weight of relabelings and their
    # reverses, which share its verdict, as stability, balance and every
    # per-color rule are blind to the names of the colors and to the
    # direction of the path
    if args.samples is not None:
        rng = random.Random(args.seed)
        batches = (
            (f"sample batch {i // 250 + 1}", min(250, args.samples - i),
             _sampled(rng, min(250, args.samples - i), max_n, max_m, args.budget, least))
            for i in range(0, args.samples, 250)
        )
        mode = "random"
    else:
        batches = (
            (f"n={n}", _colorings_count(n, max_m), _orbits(n, max_m, least))
            for n in range(1, max_n + 1)
        )
        mode = "exhaustive"

    scanned = found = skipped = 0
    missing: list[tuple[int, ...]] = []
    for label, covered, batch in batches:
        weighed = 0
        for colors, weight, twin in batch:
            weighed += weight
            if _split_exists(colors, twin, q, args.budget):
                found += weight
            elif mode == "exhaustive":
                missing.extend(_relabelings(colors))
                if twin:
                    missing.extend(_relabelings(_mirror(colors)))
            else:
                missing.append(colors)
        scanned += weighed
        skipped += covered - weighed
        print(
            f"{label}: scanned={scanned} found={found} skipped={skipped}",
            file=sys.stderr,
        )
    if mode == "exhaustive":
        # the order of a scan over every coloring: by n, then m, then lexicographic
        missing.sort(key=lambda c: (len(c), max(c), c))
    return {
        "q": q,
        "max_n": max_n,
        "max_m": max_m,
        "mode": mode,
        "scanned": scanned,
        "found": found,
        "skipped": skipped,
        "counterexamples": [
            instance_to_json(Instance(kind="path", colors=c, q=q)) for c in missing
        ],
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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and argparse's map from command name to subparser."""
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
                       help=f"budget of the pair-split search, charged m units per "
                            f"removal vector for m colors (default {PAIR_BUDGET})")

    p = add("split-necklace", cmd_split_necklace,
            "fair whole-bead necklace splitting with chosen advantaged thieves")
    p.add_argument("--q", type=_q_at_least_2, help="number of thieves (overrides the file)")
    p.add_argument("--budget", type=_positive_int, default=NODE_BUDGET, metavar="N",
                   help=f"node budget for the depth-first necklace search "
                        f"(default {NODE_BUDGET})")

    p = add("split-stable", cmd_split_stable,
            "q-stable split of a colored path (composition for powers of two)")
    p.add_argument("--q", type=_q_at_least_2, help="number of classes (overrides the file)")
    p.add_argument("--enforce-upper", action="store_true",
                   help="also require the per-color upper bound")
    p.add_argument("--budget", type=_positive_int, metavar="N",
                   help=f"for powers of two, units per pair split at m per removal "
                        f"vector (default {PAIR_BUDGET}); otherwise search nodes "
                        f"per path (default {NODE_BUDGET})")

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
    p.add_argument("--budget", type=_positive_int, default=NODE_BUDGET, metavar="N",
                   help=f"search nodes per path (default {NODE_BUDGET}); running "
                        f"out stops the scan with exit 5, in exhaustive mode only "
                        f"once the path's reverse runs out too")

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, with less work.

    A request that names a command first runs that command's parser
    alone, as the full parser would, with the same help and errors.  Any
    other request, or one that leaves arguments over, goes through the
    full parser, which prints what it always has.
    """
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        text = _dumps_top_level(args.func(args))
        if args.json_out:
            Path(args.json_out).write_text(text + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, InternalInvariantError, PreconditionError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(text)
    return 0


# json.dumps's own defaults, without its per-call argument checks
_encode = json.JSONEncoder().encode


def _dumps_top_level(payload: dict[str, Any]) -> str:
    """The payload as JSON, one top-level key per line.

    Each value is encoded on one line, as ``json.dumps`` would, by the C
    encoder; ``indent`` would send the whole document through the
    pure-Python one.
    """
    lines = (f"  {_encode(key)}: {_encode(value)}" for key, value in payload.items())
    return "{\n" + ",\n".join(lines) + "\n}"


if __name__ == "__main__":
    sys.exit(main())
