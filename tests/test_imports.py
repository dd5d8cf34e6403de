"""Every name a package module imports is used in that module, every name
a package module defines is read by the package, the benchmark or the
acceptance tests (a name only unit tests read is dead code), every
defaulted parameter is passed by one of those readers (a setting only unit
tests set is a constant), every dataclass field and ``self.X`` attribute
a class assigns is read by one of those readers (state only unit tests
read is dead), and scipy loads only where it is needed: ``import
qpspec.cli``, ``build`` and ``predict`` of every map (a dilation included)
load no scipy module, and only the Lanczos sigma_min kernel loads
``scipy.linalg``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qpspec"
ROOT = SRC.parent.parent
# the directories and the test file whose reads keep a definition alive
READERS = ("src", "bench")
ACCEPTANCE = Path("tests", "test_acceptance.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def definitions(source: str) -> set[str]:
    """Module-level functions, classes and assigned names, and the methods
    of module-level classes; dunder names excepted."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def references(source: str) -> set[str]:
    """Names a source reads, as a bare name, an attribute, an imported name
    or a string (a name looked up with getattr)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unreferenced(source: str, others: list[str]) -> list[str]:
    """Names ``source`` defines that neither it nor any of ``others`` reads."""
    refs = set().union(references(source), *(references(s) for s in others))
    return sorted(definitions(source) - refs)


def dead_definitions(root: Path) -> dict[str, list[str]]:
    """Per module of src/qpspec under ``root``, the names it defines that no
    file under READERS and not the acceptance tests read."""
    paths = [p for d in READERS for p in sorted((root / d).rglob("*.py"))]
    sources = {p: p.read_text() for p in paths + [root / ACCEPTANCE]}
    dead = {
        p.name: unreferenced(text, [s for q, s in sources.items() if q != p])
        for p, text in sources.items()
        if p.parent == root / "src" / "qpspec"
    }
    return {name: names for name, names in dead.items() if names}


def _callee(func: ast.expr) -> str | None:
    """The name a call goes to: ``f(...)`` and ``obj.f(...)`` both call f."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None, str]]:
    """(qualified name, called name, position, keyword) of each defaulted
    parameter of a module-level function, of a method or constructor of a
    module-level class, and of each defaulted dataclass field.

    The position counts the arguments a caller passes (self and cls
    excepted), None for a keyword-only parameter; a constructor and a
    dataclass are called by their class name.  A ``field()`` with neither
    ``default`` nor ``default_factory``, or with ``init``, is not defaulted.
    """
    out = []
    for node in ast.parse(source).body:
        funcs = []
        if isinstance(node, ast.FunctionDef):
            funcs.append((node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                if f.name.startswith("__") and f.name != "__init__":
                    continue
                static = any(_callee(d) == "staticmethod" for d in f.decorator_list)
                called = node.name if f.name == "__init__" else f.name
                funcs.append((f"{node.name}.{f.name}", called, f, 0 if static else 1))
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if "dataclass" in map(_callee, decorators):
                fields = [s for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                for i, s in enumerate(fields):
                    if s.value is None:
                        continue
                    if isinstance(s.value, ast.Call) and _callee(s.value.func) == "field":
                        kws = {k.arg for k in s.value.keywords}
                        if "init" in kws or not kws & {"default", "default_factory"}:
                            continue
                    out.append((f"{node.name}.{s.target.id}", node.name, i, s.target.id))
        for qual, called, f, skip in funcs:
            pos = f.args.posonlyargs + f.args.args
            first = len(pos) - len(f.args.defaults)
            for i, a in enumerate(pos[first:], first):
                out.append((f"{qual}.{a.arg}", called, i - skip, a.arg))
            for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if d is not None:
                    out.append((f"{qual}.{a.arg}", called, None, a.arg))
    return out


def passed_arguments(sources: list[str]) -> dict[str, tuple[int, set[str]]]:
    """Per called name, the most positional arguments any call passes (all
    of them through a ``*`` argument) and the keywords passed (``**`` for
    a ``**`` argument)."""
    seen: dict[str, tuple[int, set[str]]] = {}
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and _callee(node.func):
                npos, kws = seen.get(_callee(node.func), (0, set()))
                star = any(isinstance(a, ast.Starred) for a in node.args)
                npos = max(npos, sys.maxsize if star else len(node.args))
                kws = kws | {k.arg or "**" for k in node.keywords}
                seen[_callee(node.func)] = (npos, kws)
    return seen


def unset_keywords(root: Path) -> dict[str, list[str]]:
    """Per module of src/qpspec under ``root``, its defaulted parameters and
    fields that no call in the READERS files and the acceptance tests
    passes, by keyword or by position: a setting only unit tests set."""
    paths = [p for d in READERS for p in sorted((root / d).rglob("*.py"))]
    sources = {p: p.read_text() for p in paths + [root / ACCEPTANCE]}
    seen = passed_arguments(list(sources.values()))
    unset = {}
    for p, text in sources.items():
        if p.parent != root / "src" / "qpspec":
            continue
        names = []
        for qual, called, pos, kw in defaulted_parameters(text):
            npos, kws = seen.get(called, (0, set()))
            if not (kw in kws or "**" in kws or (pos is not None and npos > pos)):
                names.append(qual)
        if names:
            unset[p.name] = sorted(names)
    return unset


def assigned_attributes(source: str) -> list[tuple[str, str]]:
    """(class, attribute) for each dataclass field and each ``self.X``
    assignment in a method of a module-level class."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = []
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if "dataclass" in map(_callee, decorators):
            names += [s.target.id for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
        for f in node.body:
            if isinstance(f, ast.FunctionDef):
                names += [t.attr for t in ast.walk(f)
                          if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                          and isinstance(t.value, ast.Name) and t.value.id == "self"]
        out += [(node.name, n) for n in dict.fromkeys(names)]
    return out


def attribute_reads(source: str) -> set[str]:
    """Attribute names a source loads, ``x.a += 1`` included."""
    tree = ast.parse(source)
    reads = {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)}
    return reads | {n.target.attr for n in ast.walk(tree)
                    if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute)}


def unread_attributes(root: Path) -> dict[str, list[str]]:
    """Per module of src/qpspec under ``root``, its classes' dataclass
    fields and ``self.X`` assignments that no attribute load in the READERS
    files and the acceptance tests reads: state only unit tests read."""
    paths = [p for d in READERS for p in sorted((root / d).rglob("*.py"))]
    sources = {p: p.read_text() for p in paths + [root / ACCEPTANCE]}
    reads = set().union(*map(attribute_reads, sources.values()))
    unread = {}
    for p, text in sources.items():
        if p.parent != root / "src" / "qpspec":
            continue
        names = [f"{c}.{a}" for c, a in assigned_attributes(text) if a not in reads]
        if names:
            unread[p.name] = sorted(names)
    return unread


def test_detector_flags_unused_names():
    src = "import os, sys\nimport scipy.linalg\nfrom math import pi, tau as t\nprint(sys, scipy, t)\n"
    assert unused_imports(src) == ["os", "pi"]


def test_detector_flags_unreferenced_definitions():
    src = (
        "LIMIT = 3\nSPARE = 4\n"
        "def used(): pass\ndef unused(): pass\ndef looked_up(): pass\n"
        "class K:\n    def m(self): pass\n    def dead(self): pass\n"
        "    def __repr__(self): pass\n"
    )
    other = "from pkg import used\nK().m()\nprint(LIMIT)\ngetattr(K, 'looked_up')\n"
    assert unreferenced(src, [other]) == ["SPARE", "dead", "unused"]


def test_detector_counts_only_package_bench_and_acceptance_readers(tmp_path):
    files = {
        "src/qpspec/mod.py": "def live(): pass\ndef accepted(): pass\ndef unit_only(): pass\n",
        "bench/run.py": "from qpspec.mod import live\n",
        "tests/test_acceptance.py": "from qpspec.mod import accepted\n",
        "tests/test_mod.py": "from qpspec.mod import unit_only\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert dead_definitions(tmp_path) == {"mod.py": ["unit_only"]}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_every_definition_is_referenced():
    assert dead_definitions(ROOT) == {}


def test_keyword_detector_counts_only_package_bench_and_acceptance_readers(tmp_path):
    files = {
        "src/qpspec/mod.py": (
            "from dataclasses import dataclass, field\n"
            "def f(a, by_bench=1, by_position=2, unit_only=3, *, kw_unit_only=4): pass\n"
            "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
            "    z: list = field(default_factory=list)\n    w: dict = field(repr=False)\n"
            "class K:\n    def __init__(self, a, b=1): pass\n"
            "    def m(self, c=2): pass\n"
        ),
        "bench/run.py": "from qpspec.mod import f\nf(0, by_bench=5)\nK(0).m(3)\n",
        "tests/test_acceptance.py": "from qpspec.mod import f, D\nf(0, 1, 2)\nD(1, 2)\n",
        "tests/test_mod.py": (
            "from qpspec.mod import f\nf(0, unit_only=6)\nD(1, z=[])\nK(0, 1)\n"
        ),
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unset_keywords(tmp_path) == {
        "mod.py": ["D.z", "K.__init__.b", "f.kw_unit_only", "f.unit_only"]
    }


def test_every_keyword_is_set():
    assert unset_keywords(ROOT) == {}


def test_attribute_detector_counts_only_package_bench_and_acceptance_readers(tmp_path):
    files = {
        "src/qpspec/mod.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass D:\n    read: int\n    unit_only: int\n"
            "class K:\n    def __init__(self):\n        self.live = 0\n"
            "        self.counter = 0\n        self.dead = {}\n"
            "    def tick(self):\n        self.counter += 1\n        return self.live\n"
        ),
        "bench/run.py": "from qpspec.mod import D\nprint(D(1, 2).read)\n",
        "tests/test_acceptance.py": "from qpspec.mod import K\nK().tick()\n",
        "tests/test_mod.py": "from qpspec.mod import D, K\nprint(D(1, 2).unit_only, K().dead)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert unread_attributes(tmp_path) == {"mod.py": ["D.unit_only", "K.dead"]}


def test_every_attribute_is_read():
    assert unread_attributes(ROOT) == {}


# run in a fresh interpreter, since this test process has loaded everything;
# argv[1] is a temporary directory for the CLI outputs
STARTUP_PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
stages = {}
import qpspec.cli
stages["import"] = loaded()
for name, command in (("cay_quarter", "build"), ("cay_quarter", "predict"),
                      ("dilation_case", "build")):
    config = str(qpspec.cli.CONFIG_DIR / (name + ".json"))
    out = sys.argv[1] + "/" + name + "_" + command
    assert qpspec.cli.main([command, "--config", config, "--out", out]) == 0
stages["build_predict"] = loaded()
import numpy as np
from qpspec.grids import ONE_NODE, FrequencyGrid
from qpspec.operators import OperatorMatrix, dilation_1d, toeplitz_halfplane
from qpspec.spectra import pseudospectrum_mask
fg = FrequencyGrid.uniform(10.0, 4)
dilation_1d(2.0, fg)
stages["dilation"] = loaded()
T = OperatorMatrix((ONE_NODE, fg), [(np.ones((1, 1), dtype=complex),
                                     toeplitz_halfplane(lambda x: 1.0 / (x + 1j), fg))])
pseudospectrum_mask(T, (-1, 1, -1, 1), (32, 32), 0.1)
stages["mask"] = loaded()
print(json.dumps(stages))
"""


def test_only_lanczos_loads_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["build_predict"] == []
    assert stages["dilation"] == []
    assert "scipy.linalg" in stages["mask"]
    assert "scipy.interpolate" not in stages["mask"]
