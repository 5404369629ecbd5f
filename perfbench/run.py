"""Layered benchmark for gatecraft.

    python3 perfbench/run.py --workload run_report --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; it imports gatecraft from `src/` and
writes only under `.bench_work/`. The seed picks the generated dataset(s).

--trace 0  runs the workload's CLI commands as subprocesses, tracing off,
           repeating them until --seconds have passed, and reports medians
           over the repetitions of the end-to-end metrics.
--trace 1  runs the same commands in this process at --jobs 1, untraced and
           then with wrappers around each layer's functions, and reports the
           per-layer metrics (see layers.py).

Every repetition's outputs are checked (see workloads.Setup.repetition). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit status: 0 when every check passed, 1 when one
failed, 2 when the checkout holds no gatecraft sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # the whole benchmark must end within 180 s
SETUP_SAMPLES = 4  # per repetition
REPORT_REPEATS = 3
SETUP_SNIPPET = "import sys, gatecraft.cli as cli; cli.load_dataset(sys.argv[1])"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "episodes_per_s": "episodes/s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs gatecraft commands as subprocesses, each against one deadline."""

    def __init__(self, log: Path):
        self.log = log
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> tuple[float, int, int]:
        """Return (wall seconds, exit code, max RSS in KiB over the process
        and the children it waited for, pool workers included)."""
        with self.log.open("ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def cli(self, argv: list[str]) -> tuple[float, int, int]:
        return self.run(["-m", "gatecraft.cli", *argv])


def measure_end_to_end(setup, runner: Runner, seconds: int) -> tuple[dict, list]:
    """Repeat the workload's commands until `seconds` have passed.

    Each repetition runs the simulating command once, `report` REPORT_REPEATS
    times back to back and SETUP_SAMPLES set-ups. A repetition's report time
    is the fastest of its back-to-back runs: on a shared host, bursts of load
    from other tenants slow a short process by up to half, and only add time.
    Every metric is then a median over the repetitions, or over all set-up
    samples for setup_s.
    """
    setup_argv = ["-c", SETUP_SNIPPET, str(setup.dataset)]
    runner.run(setup_argv)  # fills the bytecode cache
    reps, setups = [], []
    out = setup.work / "rep"
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        runs = {}

        def execute(role, argv):
            runs[role] = [runner.cli(argv) for _ in range(REPORT_REPEATS if role == "report" else 1)]
            return next((code for _, code, _ in runs[role] if code != 0), 0)

        outcome = setup.repetition(out, setup.jobs, execute)
        for _ in range(SETUP_SAMPLES):
            wall, code, _ = runner.run(setup_argv)
            if code != 0:
                setup.problems.append(f"set-up exited {code}")
            setups.append(wall)
        reps.append((runs["sim"][0], min(wall for wall, _, _ in runs["report"]),
                     max(rss for _, _, rss in runs["sim"] + runs["report"]), outcome))

    print("repetitions (sim s, report s):",
          " ".join(f"{sim[0]:.3f},{report:.3f}" for sim, report, _, _ in reps))
    print("set-ups (s):", " ".join(f"{s:.3f}" for s in setups))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sim[0] + report for sim, report, _, _ in reps),
        "episodes_per_s": statistics.median(o.episodes / sim[0] for sim, _, _, o in reps),
        "report_s": statistics.median(report for _, report, _, _ in reps),
        "peak_rss_mb": statistics.median(rss / 1024 for _, _, rss, _ in reps),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, \
        [o for _, _, _, o in reps]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "gatecraft" / "cli.py").is_file():
        print(f"perfbench: no gatecraft sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS, Setup

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work / "commands.log")
    setup = Setup(args.workload, args.seed, work, lambda a: runner.cli(a)[1])
    try:
        if args.trace:
            metrics, outcomes = layers.measure(setup, args.seconds)
        else:
            metrics, outcomes = measure_end_to_end(setup, runner, args.seconds)
    finally:
        setup.close()

    problems = setup.problems + [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    first = outcomes[0]
    print(f"workload {args.workload}, seed {args.seed}, {len(outcomes)} checked repetitions")
    if first.counts is not None:
        c = first.counts
        print(f"per repetition: {first.episodes} episodes, {c.actions} actions, {c.events} events, "
              f"{c.bytes} trace bytes, {c.adjudicator_calls} adjudicator calls, tiers {c.tiers}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':36s} {failed / attempted:.6g} ({failed} failed of {attempted} "
          f"operations: episode runs plus adjudicator calls)")
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
