"""Source hygiene: every import in `src/` and `tests/` is used, every
module-level name in `src/gatecraft` is used in `src/` or exported, every
`RunConfig` field is read by the program and echoed into the trace,
importing the command line loads no network or process-pool module and
builds no dataclass but `RunConfig`, the package builds one process pool,
no `src/gatecraft` module imports a gatecraft module inside a function and
their module-level imports form no cycle, no `src/gatecraft` module imports
`enum`, every tag a run holds is
an exact `str`, every issue type is detected by a run, and the benchmark's
per-layer wrappers still find what they wrap and count views and digests
once per step, the step loop reads an agent's own inventory only from
its private state, and the command line reads no trace payload.

Package `__init__.py` files are skipped (their imports are re-exports), and
so are `__future__` imports. A name counts as used when it appears as a
`Name` anywhere in the module (a name used only inside a quoted annotation
would not count).
"""

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from gatecraft import IssueType, RunConfig, Trace
from gatecraft import agent
from gatecraft.agent import simulate_episode

from conftest import attribute_reads, dependency_block_spec

ROOT = Path(__file__).resolve().parent.parent

# Only `remote:` backends and `--jobs > 1` need these; they are imported where used.
LAZY_MODULES = ("urllib.request", "http.client", "ssl", "concurrent.futures")


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    problems = [p for f in files if f.name != "__init__.py" for p in unused_imports(f)]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def module_level_names(path: Path) -> dict[str, int]:
    """Functions, classes and assigned names defined at a module's top level,
    dunders aside, with their line numbers."""
    names: dict[str, int] = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {n: line for n, line in names.items() if not (n.startswith("__") and n.endswith("__"))}


def test_every_module_level_name_is_used_or_exported():
    """No API that only tests call: a name defined at the top of a module in
    `src/gatecraft` is read somewhere in `src/` (as a name or an attribute)
    or listed in `gatecraft.__all__`."""
    package = ROOT / "src" / "gatecraft"
    used: set[str] = set()
    for f in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(), filename=str(f))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = set(importlib.import_module("gatecraft").__all__)
    problems = [f"{f.relative_to(ROOT)}:{line}: {name}"
                for f in sorted(package.glob("*.py")) if f.name != "__init__.py"
                for name, line in module_level_names(f).items()
                if name not in used and name not in exported]
    assert not problems, "defined but neither used in src/ nor exported:\n" + "\n".join(problems)


def test_every_run_setting_is_read_and_echoed():
    """A `RunConfig` field that no code in `src/` reads, outside the echo in
    `describe`, is a setting that changes nothing but the trace. The echo
    holds exactly the run settings: every field but `allow_unvalidated`,
    which only admits weights."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    reads = set().union(*(attribute_reads(f, names) for f in sorted((ROOT / "src").rglob("*.py"))))
    read = {name for module, scope, name in reads if (module, scope) != ("agent", "RunConfig.describe")}
    assert sorted(names - read) == []
    assert sorted(RunConfig().describe()) == sorted(names - {"allow_unvalidated"})


def test_cli_import_skips_network_and_pool_modules():
    probe = f"import sys, gatecraft.cli; print([m for m in {LAZY_MODULES!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_one_process_pool_serves_every_command():
    """`run`, `ablate` and `calibrate` fan out through one pool, so one
    chunking rule and one serial loop serve them all."""
    built = [f"{f.name}:{node.lineno}" for f in sorted((ROOT / "src" / "gatecraft").glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text())) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ProcessPoolExecutor"]
    assert len(built) == 1, built


def test_run_config_is_the_only_dataclass():
    """Every gatecraft command imports every module, and a dataclass builds
    its generated methods (`__init__`, `__repr__`, `__eq__`, and three more
    when frozen) by compiling source text while its module is imported, so
    each one adds to the start-up of every command. The records are plain
    classes with `__slots__` instead. `RunConfig` stays a dataclass: `ablate`
    derives its variants with `dataclasses.replace`, and `regate_key` walks
    `dataclasses.fields`, so the gate settings keep the few readers that
    `tests/test_regate.py` pins."""
    probe = ("import sys, gatecraft.cli\n"
             "print(sorted(f'{m.__name__}.{k}' for m in list(sys.modules.values())\n"
             "             if m.__name__.split('.')[0] == 'gatecraft' for k, v in vars(m).items()\n"
             "             if isinstance(v, type) and v.__module__ == m.__name__\n"
             "             and hasattr(v, '__dataclass_fields__')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "['gatecraft.agent.RunConfig']"


def gatecraft_imports(path: Path) -> list[tuple[int, str, bool]]:
    """`(line, module, in_function)` for each import of a gatecraft module in
    the `src/gatecraft` module at `path`, the module by its dotted name. An
    import under `if TYPE_CHECKING:` is left out: it never runs."""
    found = []

    def imported(node) -> list[str]:
        if isinstance(node, ast.Import):
            return [a.name for a in node.names if a.name.split(".")[0] == "gatecraft"]
        if node.level == 0:
            return [node.module] if node.module.split(".")[0] == "gatecraft" else []
        # relative: the package has no subpackages, so `.` is gatecraft
        if node.module:
            return [f"gatecraft.{node.module}"]
        return [f"gatecraft.{a.name}" for a in node.names]

    def visit(nodes, in_function: bool) -> None:
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.extend((node.lineno, module, in_function) for module in imported(node))
            elif isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING",
                                                                          "typing.TYPE_CHECKING"):
                visit(node.orelse, in_function)
            else:
                inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                visit(ast.iter_child_nodes(node), in_function or inner)

    visit(ast.parse(path.read_text(), filename=str(path)).body, False)
    return found


def _package_modules() -> dict[str, Path]:
    package = ROOT / "src" / "gatecraft"
    return {("gatecraft" if f.name == "__init__.py" else f"gatecraft.{f.stem}"): f
            for f in sorted(package.glob("*.py"))}


def test_no_gatecraft_import_inside_a_function():
    """A function-level import hides a dependency, and the import cycle it
    may stand in for, from the module's header."""
    problems = [f"{f.relative_to(ROOT)}:{line}: {module}"
                for f in _package_modules().values()
                for line, module, in_function in gatecraft_imports(f) if in_function]
    assert not problems, "gatecraft imports inside functions:\n" + "\n".join(problems)


def test_module_level_imports_form_no_cycle():
    graph = {name: {module for _, module, in_function in gatecraft_imports(f) if not in_function}
             for name, f in _package_modules().items()}
    assert any(graph.values())
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def test_no_gatecraft_module_imports_enum():
    """A tag has one spelling, the string the trace writes; a `str` Enum
    member is a second one, which an f-string spells `IssueType.MISSING_MATERIAL`."""
    problems = [f"{f.relative_to(ROOT)}:{node.lineno}"
                for f in _package_modules().values()
                for node in ast.walk(ast.parse(f.read_text(), filename=str(f)))
                if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "enum" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "enum")]
    assert not problems, "enum imports:\n" + "\n".join(problems)


def test_every_tag_a_run_holds_is_an_exact_str(dataset, monkeypatch):
    """Each blockage's `issue`, each window's `issue` and `state`, and each
    message's `protocol` and `reason`, over a class-B run, which completes
    handovers, and the run whose issue is a dependency block."""
    blockages, windows = [], set()
    detect, settle = agent.detect_issue, agent.settle_window

    def detect_and_record(*args, **kwargs):
        if (blockage := detect(*args, **kwargs)) is not None:
            blockages.append(blockage)
        return blockage

    def settle_and_record(window, now):
        windows.add(window)
        return settle(window, now)

    monkeypatch.setattr(agent, "detect_issue", detect_and_record)
    monkeypatch.setattr(agent, "settle_window", settle_and_record)
    spec_b = next(spec for spec in dataset[1] if spec.class_label == "B")
    for spec in (spec_b, dependency_block_spec()):
        simulate_episode(spec, RunConfig())
    messages = [m for w in windows for m in w.messages]
    tags = ([b.issue for b in blockages] + [t for w in windows for t in (w.issue, w.state)]
            + [t for m in messages for t in (m.protocol, m.reason)])
    assert {b.issue for b in blockages} >= {"transfer_needed", "dependency_block"}
    assert "fulfilled" in {w.state for w in windows} and messages
    assert [t for t in tags if type(t) is not str] == []


def test_every_issue_type_is_raised_by_a_run(default_runs):
    """ROADMAP item 9: an issue type that no run detects goes, with its
    branch and its rule. The default runs at dataset seed 0 detect
    `missing_material` and `transfer_needed`; no generated prerequisite edge
    crosses agents, so `dependency_block` is raised by the one hand-built
    spec whose edge does."""
    runs = list(default_runs) + [simulate_episode(dependency_block_spec(), RunConfig())]
    detected = {e["payload"]["issue"] for ep in runs for e in ep.trace.events
                if e["kind"] == "issue" and e["payload"]["event"] == "detected"}
    assert detected == set(IssueType.ALL)


def _perfbench_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_perfbench_layer_wrappers_install_and_restore():
    """perfbench wraps program functions by the names their callers look them
    up by; a deleted or renamed one fails here, not in `perfbench/run.py
    --trace 1`. Restoring must leave every wrapped namespace as it was."""
    layers = _perfbench_layers()
    owners = (layers.agent, layers.cli, layers.gate, layers.harness, layers.Trace,
              layers.EpisodeSpec, layers.WorldState, layers.WorldView,
              layers.MockAdjudicator, layers.RemoteAdjudicator)
    before = [dict(vars(owner)) for owner in owners]
    for backend in (layers.MockAdjudicator, layers.RemoteAdjudicator):
        tracer = layers.Tracer()
        tracer.install(backend, count_results=True)
        tracer.restore()
        assert [dict(vars(owner)) for owner in owners] == before


def test_perfbench_counts_one_view_and_one_digest_per_step(dataset):
    """`world.observe.*` and `world.view_digest.*` time the one view and the
    one digest each step builds, whether the view cache serves it or not,
    so they compare across changes to the cache. A class-B episode's window
    is fulfilled, so no window close observes on its own."""
    layers = _perfbench_layers()
    spec = next(e for e in dataset[1] if e.class_label == "B")
    tracer = layers.Tracer()
    tracer.install(layers.MockAdjudicator, count_results=False)
    try:
        trace = layers.agent.run_episode(spec, layers.agent.RunConfig())
    finally:
        tracer.restore()
    calls = {name: tracer.spans[name][0] for name in ("agent.step", "world.observe", "world.view_digest")}
    assert calls["agent.step"] == sum(e["kind"] == "action" for e in trace.events) > 0
    assert calls["world.observe"] == calls["world.view_digest"] == calls["agent.step"], calls


def test_perfbench_counts_one_emit_per_written_event_and_one_action_per_step(dataset):
    """Under `--trace 1` perfbench compares `trace.emit` calls with the events
    the traces hold, and `agent.step` calls with their `action` events; a
    step writes one event, and every event is written through one `emit`."""
    layers = _perfbench_layers()
    spec = next(e for e in dataset[1] if e.class_label == "B")
    tracer = layers.Tracer()
    tracer.install(layers.MockAdjudicator, count_results=False)
    try:
        text = layers.agent.run_episode(spec, layers.agent.RunConfig()).to_jsonl()
    finally:
        tracer.restore()
    written = Trace.from_jsonl(text).events
    assert tracer.spans["trace.emit"][0] == len(written) == text.count("\n")
    actions = sum(e["kind"] == "action" for e in written)
    assert tracer.spans["agent.step"][0] == actions > 0
    assert tracer.counters["trace_bytes"] == len(text.encode())


def test_decisions_read_an_agents_inventory_only_from_its_private_state():
    """agent.py reads a world body's inventory in one place: where
    `EpisodeRuntime.__init__` seeds each agent's private state from it.
    Every other inventory read is of a `PrivateState`, or of a chest in
    view, which an escalation's solver context records."""
    reads = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr == "inventory":
                reads.add((inner, ast.unparse(child.value)))
            visit(child, inner)

    visit(ast.parse((ROOT / "src" / "gatecraft" / "agent.py").read_text()), "")
    assert {(scope, base) for scope, base in reads if base != "state"} == {
        ("EpisodeRuntime.__init__", "self.world.agents[aid]"), ("_solver_context", "c")}


def payload_reads(path: Path) -> list[str]:
    """`line: code` for each place a module reads a trace payload: a
    `"payload"` subscript or `.get("payload")`, or any `adjudicator_ok`."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args:
            key = node.args[0] if node.func.attr == "get" else None
        else:
            key = None
        if (isinstance(key, ast.Constant) and key.value == "payload") or (
                isinstance(node, ast.Constant) and node.value == "adjudicator_ok"):
            reads.append(f"{node.lineno}: {ast.unparse(node)}")
    return reads


def test_the_command_line_reads_no_trace_payload():
    """`Trace.from_jsonl` and `harness.compute_metrics` are the readers of
    the trace format; the command line reads the metrics they give, so a
    second reader of payload fields cannot drift from them."""
    assert payload_reads(ROOT / "src" / "gatecraft" / "cli.py") == []
    assert payload_reads(ROOT / "src" / "gatecraft" / "harness.py") != []  # the check sees reads
