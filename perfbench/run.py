"""Benchmark of fairsplit's certified answers, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paths --seed 1 --seconds 25 --trace 0

Workloads: paths, necklace, tucker, scan (see workloads.py and README.md).
Each workload runs in its own worker process as a closed loop with one
client: one in-process ``fairsplit.cli.main(argv)`` call at a time on a
generated instance file, so a request covers JSON parsing, solving, the
program's own verification and JSON output.  Every answer is then
checked by checks.py, which does not use fairsplit's verifiers.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several fresh worker start-ups), instances per second of request time,
median and 90th-percentile request latency and the worker's peak
resident memory after a fixed number of rounds.  Times are scaled to a
reference machine speed measured by a small probe between rounds (see
README.md), because the speed of a shared machine drifts.  ``--trace 1``
runs the workload with every layer wrapped in span recorders, prints
per-layer self times and counts, and reruns the same rounds untraced in
a fresh worker to report the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("paths", "necklace", "tucker", "scan")
# fresh worker start-ups per run whose median is setup_s (the last one
# goes on to the timed loop)
SETUP_REPEATS = 5
# speed probes a worker runs before its imports and after its warm-up
SETUP_PROBES = 8
# Times are scaled to a machine on which speed_probe() takes this long;
# the probe runs after every round and is judged per window of WINDOW_S.
REFERENCE_PROBE_S = 1.0e-3
WINDOW_S = 2.0
# a run's workers are killed if they are not done this long after its start
RUN_LIMIT_S = 170


# ---------------------------------------------------------------------------
# worker: set-up, warm-up and the closed loop, in one process


class Runner:
    """Executes requests through ``cli.main`` and keeps the run's tallies."""

    def __init__(self, cli_main, workdir: Path) -> None:
        self.cli_main = cli_main
        self.input = workdir / "instance.json"
        self.latencies: list[float] = []
        self.answered: list[int] = []
        self.failed = 0
        self.bad: list[str] = []
        self.cuts: list[int] = []

    def call(self, request) -> tuple[list[str], int, str, str, float]:
        """One request: (argv, exit code, stdout, stderr, seconds in cli.main)."""
        argv = [request.command]
        if request.instance is not None:
            self.input.write_text(json.dumps(request.instance))
            argv += ["--input", str(self.input)]
        argv += request.flags
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a traceback breaks the CLI contract
                code = 1
                err.write(f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        return argv, code, out.getvalue(), err.getvalue(), elapsed

    def judge(self, request, argv: list[str], code: int, out: str, err: str
              ) -> dict[str, Any] | None:
        """Check one answer; returns it, or None if the request failed."""
        problems = []
        answer = None
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()[-300:]}")
        else:
            try:
                answer = json.loads(out)
                problems = request.check(answer)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problems = [f"malformed answer: {type(exc).__name__}: {exc}"]
        if problems:
            self.bad.append(f"{' '.join(argv)} {json.dumps(request.instance)}: {problems}")
            return None
        return answer

    def execute(self, request) -> None:
        """One timed request, checked after its clock has stopped."""
        argv, code, out, err, elapsed = self.call(request)
        self.latencies.append(elapsed)
        answer = self.judge(request, argv, code, out, err)
        if answer is None:
            self.answered.append(0)
            self.failed += 1
            return
        self.answered.append(request.count(answer))
        if request.command == "split-necklace":
            self.cuts.append(answer["cuts"])


def speed_probe() -> float:
    """Seconds taken by a fixed mix of work: interpreter loops, allocation, numpy.

    The three parts take about equal time, so the mix follows the
    machine's speed changes both for pure-Python requests and for
    numpy-heavy ones (see README.md).
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(1500):
        table[i % 97] = table.get(i % 97, 0) + i * 3
    sorted(table.items())
    objects = {str(i): (i, [i]) for i in range(1000)}
    sum(len(v[1]) for v in objects.values())
    codes = np.arange(10000) % 7
    for _ in range(5):
        codes = (codes * 3 + 1) % 7
    return time.perf_counter() - start


def _import_program():
    sys.path.insert(0, str(SRC))
    from fairsplit import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"fairsplit imported from {cli.__file__}, not from {SRC}")
    return cli


def worker(args: argparse.Namespace) -> int:
    probe_start = time.perf_counter()
    setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    probe_s = time.perf_counter() - probe_start
    cli = _import_program()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cli.main, workdir)
        warmed = [(request, runner.call(request))
                  for round_ in workloads.warmup_rounds(args.workload)
                  for request in round_]
        probe_start = time.perf_counter()
        setup_probes += [speed_probe() for _ in range(SETUP_PROBES)]
        probe_s += time.perf_counter() - probe_start
        # The parent subtracts the probes' own time from the set-up time it
        # observed and scales the rest by the probes' median.
        print(f"READY {statistics.median(setup_probes) / REFERENCE_PROBE_S!r} {probe_s!r}",
              flush=True)
        # warm-up answers are checked only now, so that set-up time is the
        # program's alone
        for request, (argv, code, out, err, _) in warmed:
            runner.judge(request, argv, code, out, err)
        if args.setup_only:
            print(json.dumps({"bad": runner.bad[:5]}), flush=True)
            return 0

        stream = workloads.rounds(args.workload, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        fixed_rounds = workloads.FIXED_ROUNDS[args.workload]
        target = fixed_rounds if tracer else args.rounds
        peak_rss = None
        rounds = 0
        # (requests, probes) at the end of each window of WINDOW_S wall seconds
        marks: list[tuple[int, int]] = []
        probes: list[float] = []
        patched = tracer.patched() if tracer else contextlib.nullcontext()
        with patched:
            # only timed requests are traced: warm-up spans would charge the
            # cold tables and their checks to the layers
            if tracer:
                runner.cli_main = tracer.span(tracing.REQUEST_SPAN, cli.main)
            start = time.perf_counter()
            while True:
                for request in next(stream):
                    if tracer:
                        tracer.request += 1
                    runner.execute(request)
                rounds += 1
                if rounds == fixed_rounds:
                    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                probes.append(speed_probe())
                elapsed = time.perf_counter() - start
                done = (target is not None and rounds >= target) or (
                    args.seconds is not None and elapsed >= args.seconds)
                if done or elapsed >= (len(marks) + 1) * WINDOW_S:
                    marks.append((len(runner.latencies), len(probes)))
                if done:
                    break

        # Scale each request to the reference speed by the probes of its
        # window, so that the machine's own speed changes cancel out.
        raw = runner.latencies
        scaled: list[float] = []
        factors = []
        for (lo, plo), (hi, phi) in zip([(0, 0), *marks], marks):
            factor = statistics.median(probes[plo:phi]) / REFERENCE_PROBE_S
            factors.append(factor)
            scaled += [t / factor for t in raw[lo:hi]]
        result = {
            "rounds": rounds,
            "attempted": len(raw),
            "failed": runner.failed,
            "bad": runner.bad[:5],
            "busy_s": sum(scaled),
            "instances_per_s": sum(runner.answered) / sum(scaled),
            "p50_ms": 1e3 * statistics.median(scaled),
            "p90_ms": 1e3 * statistics.quantiles(scaled, n=10)[-1],
            "speed_factor": statistics.median(factors),
            "peak_rss_mb": (peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
                           / 1024,
            "cuts_per_instance": statistics.mean(runner.cuts) if runner.cuts else 0.0,
        }
        if tracer:
            result["layers"] = tracer.layer_metrics()
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# parent: spawns the workers, times their set-up, assembles the metrics


class WorkerError(RuntimeError):
    pass


def spawn(args: argparse.Namespace, *extra: str, deadline: float
          ) -> tuple[float, dict]:
    """Run one worker.

    Returns its set-up time, scaled to the reference speed and without the
    speed probes' own time, and its result.  The worker is killed if it is
    still running at ``deadline`` (monotonic).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    try:
        setup = None
        line = b""
        while setup is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise WorkerError("worker timed out during set-up")
            chunk = proc.stdout.read(1)
            if not chunk:
                raise WorkerError(f"worker exited during set-up with code {proc.wait()}")
            line += chunk
            if line.endswith(b"\n"):
                if line.startswith(b"READY "):
                    _, factor, probe_s = line.split()
                    wall = time.perf_counter() - start
                    setup = (wall - float(probe_s)) / float(factor)
                line = b""
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
        lines = rest.decode().strip().splitlines()
        if not lines:
            raise WorkerError("worker printed no result")
        return setup, json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def measure(args: argparse.Namespace
            ) -> tuple[bool, int, int, dict[str, tuple], list[str], float]:
    """Run the workers; returns (correct, attempted, failed, metrics, problems, speed factor)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if not args.trace:
        setups, bad = [], []
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            extra = ("--seconds", str(args.seconds)) if last else ("--setup-only",)
            setup, res = spawn(args, *extra, deadline=deadline)
            setups.append(setup)
            bad += res["bad"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "instances_per_s": (res["instances_per_s"], "1/s"),
            "op_p50_ms": (res["p50_ms"], "ms"),
            "op_p90_ms": (res["p90_ms"], "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        return not bad, res["attempted"], res["failed"], metrics, bad, res["speed_factor"]

    _, traced = spawn(args, "--seconds", str(args.seconds), "--trace", "1", deadline=deadline)
    _, plain = spawn(args, "--rounds", str(traced["rounds"]), deadline=deadline)
    factor = traced["speed_factor"]
    metrics = {name: (value / factor if unit == "s" else value, unit)
               for name, (value, unit) in traced["layers"].items()}
    metrics["necklace.cuts_per_instance"] = (traced["cuts_per_instance"], "count")
    metrics["trace.requests"] = (traced["attempted"], "count")
    metrics["trace.overhead_s"] = (traced["busy_s"] - plain["busy_s"], "s")
    metrics["trace.overhead_pct"] = (
        100 * (traced["busy_s"] - plain["busy_s"]) / plain["busy_s"], "%")
    ok = not traced["bad"] and not plain["bad"]
    attempted = traced["attempted"] + plain["attempted"]
    failed = traced["failed"] + plain["failed"]
    return ok, attempted, failed, metrics, traced["bad"] + plain["bad"], factor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.worker and (args.seconds is None or args.seconds <= 0):
        parser.error("--seconds must be a positive number")

    if not (SRC / "fairsplit" / "cli.py").is_file():
        print(f"error: no fairsplit sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    try:
        correct, attempted, failed, metrics, problems, factor = measure(args)
    except (WorkerError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} attempted={attempted} failed={failed} "
          f"correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  speed factor {factor:.4g} (times above are divided by it)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
