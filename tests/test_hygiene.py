"""Source hygiene: every import in `src/` and `tests/` is used, importing
the command line loads no network or process-pool module, and the
benchmark's per-layer wrappers still find what they wrap.

Package `__init__.py` files are skipped (their imports are re-exports), and
so are `__future__` imports. A name counts as used when it appears as a
`Name` anywhere in the module (a name used only inside a quoted annotation
would not count).
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_skips_network_and_pool_modules():
    probe = f"import sys, gatecraft.cli; print([m for m in {LAZY_MODULES!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_perfbench_layer_wrappers_install_and_restore():
    """perfbench wraps program functions by the names their callers look them
    up by; a deleted or renamed one fails here, not in `perfbench/run.py
    --trace 1`. Restoring must leave every wrapped namespace as it was."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    owners = (layers.agent, layers.cli, layers.gate, layers.harness, layers.Trace,
              layers.EpisodeSpec, layers.WorldState, layers.WorldView,
              layers.MockAdjudicator, layers.RemoteAdjudicator)
    before = [dict(vars(owner)) for owner in owners]
    for backend in (layers.MockAdjudicator, layers.RemoteAdjudicator):
        tracer = layers.Tracer()
        tracer.install(backend, count_results=True)
        tracer.restore()
        assert [dict(vars(owner)) for owner in owners] == before
