"""Every name a package module imports is used in that module, every name
a package module defines is read by the package, the benchmark or the
acceptance tests (a name only unit tests read is dead code), and scipy
loads only where it is needed: ``import qpspec.cli``, ``build`` and
``predict`` load no scipy module, the Lanczos sigma_min kernel loads
``scipy.linalg`` and a dilation with p != 1 loads ``scipy.interpolate``."""

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


# run in a fresh interpreter, since this test process has loaded everything;
# argv[1] is a temporary directory for the CLI outputs
STARTUP_PROBE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
stages = {}
import qpspec.cli
stages["import"] = loaded()
config = str(qpspec.cli.CONFIG_DIR / "cay_quarter.json")
for command in ("build", "predict"):
    assert qpspec.cli.main([command, "--config", config, "--out", sys.argv[1] + "/" + command]) == 0
stages["build_predict"] = loaded()
from qpspec.grids import FrequencyGrid
from qpspec.operators import dilation_1d, toeplitz_halfplane
from qpspec.spectra import pseudospectrum_mask
fg = FrequencyGrid.uniform(10.0, 4)
pseudospectrum_mask(toeplitz_halfplane(lambda x: 1.0 / (x + 1j), fg), (-1, 1, -1, 1), (32, 32), 0.1)
stages["mask"] = loaded()
dilation_1d(2.0, fg)
stages["dilation"] = loaded()
print(json.dumps(stages))
"""


def test_only_lanczos_and_dilations_load_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    stages = json.loads(done.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["build_predict"] == []
    assert "scipy.linalg" in stages["mask"]
    assert "scipy.interpolate" not in stages["mask"]
    assert "scipy.interpolate" in stages["dilation"]
