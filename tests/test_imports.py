"""Each module imports only what it reads, and importing one module loads
only what that module needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

# imported names a module never reads: perfbench/spans.py:65-72 (COUNTED)
# counts calls through them by patching these module globals
TRACER_ONLY = {
    "env.py": {"combined_qoe", "effective_rate", "qoe_fn"},
    "oracle.py": {"combined_qoe", "effective_rate"},
}


def _unread_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_imported_name_is_read():
    """Every name a module imports is read there, but for the tracer's."""
    unread = {}
    for path in (SRC / "minislot").glob("*.py"):
        if names := _unread_imports(ast.parse(path.read_text())):
            unread[path.name] = names
    assert unread == TRACER_ONLY


def test_the_qoe_model_loads_alone():
    """The package root re-exports nothing, so importing the QoE model
    loads neither numpy nor another module of the package."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import sys; import minislot.qoe; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('minislot')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=60
    )
    assert result.stdout == "['minislot', 'minislot.qoe']\n"
