"""Workload inputs, the loopback adjudicator stub, and output checks.

Three workloads drive the `gatecraft` command line:

- run_report:    `run --jobs 1` on the 200-episode dataset, then `report`.
- ablate_j2:     `ablate --jobs 2` (6 variants x 200 episodes), then `report`
                 over a reference run's traces, which adds the sensitivity
                 section that `report` prints when ablation.csv exists.
- active_remote: `run --thresholds 0.2,0.8 --backend remote:<stub>` on the
                 class A-C episodes of REMOTE_SEEDS consecutive dataset seeds,
                 then `report`. The wide band sends every score-tier decision
                 to the adjudicator.

`ablate` ignores `--backend` (it always uses the mock), which is why the
remote workload is built on `run`.
"""

from __future__ import annotations

import csv
import hashlib
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

from gatecraft.agent import Trace
from gatecraft.gate import GateThresholds, MockAdjudicator
from gatecraft.scenarios import generate_dataset, save_dataset

# --jobs of each workload's simulating command when it is timed end to end
JOBS = {"run_report": 1, "ablate_j2": 2, "active_remote": 1}
WORKLOADS = tuple(JOBS)
REMOTE_SEEDS = 8
REMOTE_THRESHOLDS = "0.2,0.8"
ABLATION_VARIANTS = 6
# aggregate columns that metrics.csv, summary.csv and ablation.csv share
SHARED_COLUMNS = ("tsr", "cs", "msg", "escalations", "adjudicator_calls", "token_cost")


def build_dataset(workload: str, seed: int, out: Path) -> list[str]:
    """Write the workload's dataset under `out` and return its episode ids.

    active_remote concatenates the class A-C episodes of dataset seeds
    seed .. seed+REMOTE_SEEDS-1. Episode ids repeat across dataset seeds and
    `run` names trace files after them, so each id gets its seed as a prefix.
    """
    if workload != "active_remote":
        manifest, episodes = generate_dataset(seed)
    else:
        episodes = []
        for s in range(seed, seed + REMOTE_SEEDS):
            for spec in generate_dataset(s)[1]:
                if spec.class_label != "D":
                    spec.episode_id = f"d{s}-{spec.episode_id}"
                    episodes.append(spec)
        manifest = {
            "dataset_seeds": list(range(seed, seed + REMOTE_SEEDS)),
            "total_episodes": len(episodes),
            "episode_ids": [e.episode_id for e in episodes],
        }
    ids = [e.episode_id for e in episodes]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{workload}: duplicate episode ids in the generated dataset")
    save_dataset(manifest, episodes, out)
    return ids


class AdjudicatorStub:
    """HTTP adjudicator on 127.0.0.1 served by one thread of this process.

    Replies with exactly the bytes MockAdjudicator(0.2, 0.8) returns, so a
    remote run must write the same traces as a mock run of the same inputs.
    The stub binds its MockAdjudicator method here, before any tracing
    wrapper is installed, so its own calls never land in the traced spans.
    """

    def __init__(self):
        lo, hi = (float(x) for x in REMOTE_THRESHOLDS.split(","))
        adjudicate = MockAdjudicator(GateThresholds(lo, hi)).adjudicate
        self.calls = 0
        self.busy_s = 0.0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                t0 = time.perf_counter()
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                try:
                    reply, status = adjudicate(body), 200
                except (ValueError, KeyError):
                    reply, status = b"bad decision card", 400
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)
                stub.calls += 1
                stub.busy_s += time.perf_counter() - t0

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


# -- output checks --------------------------------------------------------------


@dataclass
class TraceCounts:
    """Deterministic counts over one command's written traces."""

    events: int = 0
    actions: int = 0
    bytes: int = 0
    adjudicator_calls: int = 0
    adjudicator_failures: int = 0
    tiers: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one repetition of a workload produced, and what went wrong."""

    digests: dict = field(default_factory=dict)
    episodes: int = 0
    failed_episodes: int = 0
    counts: TraceCounts | None = None
    problems: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Operations: episode runs plus adjudicator calls seen in the traces."""
        return self.episodes + (self.counts.adjudicator_calls if self.counts else 0)

    @property
    def failed(self) -> int:
        return self.failed_episodes + (self.counts.adjudicator_failures if self.counts else 0)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def traces_digest(traces: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(traces.glob("*.jsonl")):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def count_traces(traces: Path) -> TraceCounts:
    c = TraceCounts()
    for f in sorted(traces.glob("*.jsonl")):
        text = f.read_text()
        c.bytes += len(text.encode())
        for event in Trace.from_jsonl(text).events:
            c.events += 1
            kind, p = event["kind"], event["payload"]
            if kind == "action":
                c.actions += 1
            elif kind == "gate_decision":
                c.tiers[p["tier"]] = c.tiers.get(p["tier"], 0) + 1
                if "adjudicator_request" in p:
                    c.adjudicator_calls += 1
                    if p.get("adjudicator_ok") is False:
                        c.adjudicator_failures += 1
    return c


def read_rows(path: Path, key: str) -> dict[str, dict]:
    with path.open(newline="") as fh:
        return {row[key]: row for row in csv.DictReader(fh)}


def same_values(a: dict, b: dict, columns=SHARED_COLUMNS) -> bool:
    for col in columns:
        x, y = a.get(col, ""), b.get(col, "")
        if (x == "") != (y == ""):
            return False
        if x != "" and abs(float(x) - float(y)) > 1e-9 * max(1.0, abs(float(x))):
            return False
    return True


class Setup:
    """A workload's inputs, stub and reference outputs, made before any timing.

    `run_cli(argv)` runs one gatecraft command as a subprocess and returns its
    exit code; it builds the reference run. `repetition` then runs the
    workload's commands through any executor and checks what they wrote.
    """

    def __init__(self, workload: str, seed: int, work: Path, run_cli):
        self.workload = workload
        self.work = work
        self.jobs = JOBS[workload]
        self.dataset = work / "dataset"
        self.episode_ids = build_dataset(workload, seed, self.dataset)
        self.stub = AdjudicatorStub() if workload == "active_remote" else None
        self.problems: list[str] = []
        self._first: dict | None = None
        self._counts: dict[str, TraceCounts] = {}
        self.reference = work / "reference"
        self._expected: dict[str, str] = {}  # digests a repetition must match
        self._reference_all: dict | None = None
        if workload != "run_report":
            # ablate_j2: the default configuration, i.e. ablate's `full`
            # variant, whose traces also feed the workload's `report`.
            # active_remote: the same inputs on the mock backend.
            argv = ["run", "--dataset", str(self.dataset), "--out", str(self.reference),
                    "--jobs", "2"]
            if workload == "active_remote":
                argv += ["--thresholds", REMOTE_THRESHOLDS]
            if run_cli(argv) != 0:
                self.problems.append("the reference run failed")
            elif workload == "active_remote":
                self._expected = {"traces": traces_digest(self.reference / "traces"),
                                  "metrics.csv": sha256_file(self.reference / "metrics.csv")}
            else:
                self._reference_all = read_rows(self.reference / "metrics.csv",
                                                "episode_id")["ALL"]

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()

    def commands(self, out: Path, jobs: int) -> list[tuple[str, list[str]]]:
        """The workload's CLI commands as (role, argv); role is sim or report."""
        ds = str(self.dataset)
        if self.workload == "ablate_j2":
            return [("sim", ["ablate", "--dataset", ds, "--out", str(out), "--jobs", str(jobs)]),
                    ("report", ["report", "--out", str(out),
                                "--traces", str(self.reference / "traces")])]
        sim = ["run", "--dataset", ds, "--out", str(out), "--jobs", str(jobs)]
        if self.stub is not None:
            sim += ["--thresholds", REMOTE_THRESHOLDS, "--backend", f"remote:{self.stub.url}"]
        return [("sim", sim), ("report", ["report", "--out", str(out)])]

    def repetition(self, out: Path, jobs: int, execute) -> Outcome:
        """Run the commands with `execute(role, argv) -> exit code`; check outputs.

        Checks: every episode has its outputs; the outputs' digests equal the
        first repetition's; remote traces equal the mock run's; ablate's
        `full` row and report's ALL row agree with the run that made them.
        """
        stub_calls = self.stub.calls if self.stub else 0
        codes = {role: execute(role, argv) for role, argv in self.commands(out, jobs)}
        o = self._check_sim(out, codes["sim"])
        self._check_report(out, codes["report"], o)
        if self.stub is not None and o.counts is not None \
                and self.stub.calls - stub_calls != o.counts.adjudicator_calls:
            o.problems.append(f"the stub served {self.stub.calls - stub_calls} calls but the "
                              f"traces record {o.counts.adjudicator_calls}")
        if self._first is None:
            self._first = dict(o.digests)
        for name, digest in o.digests.items():
            if self._first.get(name, digest) != digest:
                o.problems.append(f"{name} differs from the first repetition")
            if self._expected.get(name, digest) != digest:
                o.problems.append(f"{name} differs from the mock-backend run")
        return o

    def _check_sim(self, out: Path, code: int) -> Outcome:
        o = Outcome()
        n = len(self.episode_ids)
        if self.workload == "ablate_j2":
            o.episodes = ABLATION_VARIANTS * n
            path = out / "ablation.csv"
            if code != 0 or not path.is_file():
                o.failed_episodes = o.episodes
                o.problems.append(f"ablate exited {code}")
                return o
            rows = read_rows(path, "variant")
            o.failed_episodes = max(0, ABLATION_VARIANTS - len(rows)) * n
            if o.failed_episodes:
                o.problems.append("ablation.csv lacks variant rows")
            if self._reference_all is not None and not same_values(
                    rows.get("full", {}), self._reference_all, SHARED_COLUMNS + ("ecr",)):
                o.problems.append("ablation.csv full row differs from the reference run")
            o.digests["ablation.csv"] = sha256_file(path)
            return o

        o.episodes = n
        traces, metrics = out / "traces", out / "metrics.csv"
        if code != 0 or not metrics.is_file():
            o.failed_episodes = n
            o.problems.append(f"run exited {code}")
            return o
        rows = read_rows(metrics, "episode_id")
        o.failed_episodes = sum(1 for e in self.episode_ids
                                if e not in rows or not (traces / f"{e}.jsonl").is_file())
        if o.failed_episodes:
            o.problems.append(f"{o.failed_episodes} episodes lack a trace or a metrics row")
        o.digests["metrics.csv"] = sha256_file(metrics)
        digest = o.digests["traces"] = traces_digest(traces)
        if digest not in self._counts:
            self._counts[digest] = count_traces(traces)
        o.counts = self._counts[digest]
        if o.counts.adjudicator_failures:
            o.problems.append(f"{o.counts.adjudicator_failures} adjudicator calls failed")
        return o

    def _check_report(self, out: Path, code: int, o: Outcome) -> None:
        summary = out / "summary.csv"
        if code != 0 or not summary.is_file():
            o.problems.append(f"report exited {code}")
            return
        o.digests["summary.csv"] = sha256_file(summary)
        all_row = read_rows(summary, "scope").get("ALL")
        if all_row is None or int(all_row["n"]) != len(self.episode_ids):
            o.problems.append("summary.csv does not cover every trace")
        elif self.workload != "ablate_j2" and (out / "metrics.csv").is_file():
            # report recomputes the metrics from the written traces; they must
            # agree with the ones `run` computed from the traces in memory
            if not same_values(all_row, read_rows(out / "metrics.csv", "episode_id")["ALL"]):
                o.problems.append("summary.csv ALL row differs from metrics.csv ALL row")
