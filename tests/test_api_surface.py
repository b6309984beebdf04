"""Every public name and every option in ``src/repro`` has a caller.

An AST walk over the repository's Python files. A public function or
class of ``src/repro`` must be referenced outside ``tests/``: a function
that only tests call is test code. Every defaulted parameter of a public
function, and every defaulted field of a public dataclass such as
``BlockerConfig``, must be passed by some call in the repository, tests
included: an option that no caller sets is a configuration that nothing
runs.

Calls are resolved through each file's imports. A call on a value whose
module is unknown (``table_module(name).run(...)``) counts for every
public function of that name.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FILES = [
    p for d in ("src", "jobs", "perfbench", "tests") for p in sorted((ROOT / d).rglob("*.py"))
] + [ROOT / "conftest.py"]


class _File:
    """One parsed file and the dotted names its local names stand for."""

    def __init__(self, path: Path):
        self.path = path
        self.tree = ast.parse(path.read_text())
        rel = path.relative_to(SRC if SRC in path.parents else ROOT).with_suffix("")
        self.module = ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)
        self.names: dict[str, str] = {}
        for n in ast.walk(self.tree):
            if isinstance(n, ast.Import):
                for a in n.names:
                    self.names[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
            elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
                for a in n.names:
                    self.names[a.asname or a.name] = f"{n.module}.{a.name}"
        for n in self.tree.body:
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                self.names.setdefault(n.name, f"{self.module}.{n.name}")

    def target(self, node: ast.AST) -> str | None:
        """The dotted name ``node`` refers to; ``*.attr`` for an attribute
        of a value whose module is unknown."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.target(node.value)
            return f"{base}.{node.attr}" if base else f"*.{node.attr}"
        return None


PARSED = [_File(p) for p in FILES]


def _public_defs() -> list[tuple[str, ast.AST]]:
    return [
        (f"{f.module}.{n.name}", n)
        for f in PARSED if SRC in f.path.parents
        for n in f.tree.body
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
    ]


def _matches(target: str, qualname: str) -> bool:
    return target == qualname or target == "*." + qualname.rsplit(".", 1)[1]


def _passed() -> dict[str, tuple[set[str], int]]:
    """Callee -> (names passed by keyword, most positional arguments).

    ``**kw`` passes every key of the file's ``dict(...)`` calls and dict
    literals."""
    out: dict[str, tuple[set[str], int]] = {}
    for f in PARSED:
        keys = set()
        for n in ast.walk(f.tree):
            if isinstance(n, ast.Call) and f.target(n.func) == "dict":
                keys |= {k.arg for k in n.keywords if k.arg}
            elif isinstance(n, ast.Dict):
                keys |= {k.value for k in n.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        for n in ast.walk(f.tree):
            if isinstance(n, ast.Call) and (t := f.target(n.func)):
                names, npos = out.get(t, (set(), 0))
                for k in n.keywords:
                    names |= {k.arg} if k.arg else keys
                out[t] = (names, max(npos, len(n.args)))
    return out


def test_every_public_function_has_a_caller_outside_tests():
    refs = set()
    for f in PARSED:
        if ROOT / "tests" in f.path.parents:
            continue
        for n in ast.walk(f.tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and (t := f.target(n)):
                refs.add(t)
            elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
                refs |= {f"{n.module}.{a.name}" for a in n.names}
    unused = [q for q, _ in _public_defs() if not any(_matches(r, q) for r in refs)]
    assert not unused, f"public names that only tests use (or nothing): {unused}"


def test_every_option_is_set_by_some_caller():
    passed = _passed()
    unset = []
    for qualname, node in _public_defs():
        calls = [v for t, v in passed.items() if _matches(t, qualname)]
        names = set().union(*(k for k, _ in calls))
        npos = max((p for _, p in calls), default=0)
        if isinstance(node, ast.FunctionDef):
            a = node.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            options = [(i, x.arg) for i, x in enumerate(pos) if i >= first]
            options += [(None, x.arg) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        else:  # a dataclass field with a default, e.g. of ``BlockerConfig``
            options = [(None, s.target.id) for s in node.body if isinstance(s, ast.AnnAssign) and s.value]
        unset += [
            f"{qualname}({arg})" for i, arg in options
            if arg not in names and not (i is not None and npos > i)
        ]
    assert not unset, f"options that no caller sets: {unset}"


def test_every_traced_layer_function_exists():
    """The traced benchmark wraps each function of ``perfbench/tracing.py``
    ``LAYERS`` by name, and a name that no longer exists just drops out of
    the trace. Only minhash's ``band_buckets`` and ``candidate_pairs`` are
    gone: LSH banding runs in numpy inside ``partition_attributes``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up here
    spec.loader.exec_module(tracing)
    missing = {
        (module, fn)
        for module, fns in tracing.LAYERS.values()
        for fn in fns
        if not hasattr(importlib.import_module(module), fn)
    }
    assert missing <= {
        ("repro.looseschema.minhash", "band_buckets"),
        ("repro.looseschema.minhash", "candidate_pairs"),
    }
