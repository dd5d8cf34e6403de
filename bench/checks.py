"""Output checks for one qpspec CLI invocation.

The checks that hold for any seed:

* build and predict exit 0; verify exits 0 on a PASS verdict and 1 on FAIL
  (a FAIL verdict is a completed operation, not a failure);
* the verdict is PASS exactly when ``distance <= tol``;
* the surrogate has no more points than the smallest per-size survivor count;
* the cross-check residual is finite and at most the bound in ``spec.json``;
* every CSV and JSON output carries the same 16-hex config hash.

At the default seed (0) the verify verdicts and per-size counts, and a fixed
sample of ``operator.csv`` entries, must also match ``pins_seed0.json``.

SVG figures without the hash are counted and reported, not failed: the
program writes none into them, although the README says every output file
carries it.  Failing on them would fail every verify and predict call.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
PINS_PATH = HERE / "pins_seed0.json"
DEFAULT_SEED = 0

HASH = re.compile(r"# config ([0-9a-f]{16})$")
EXPECTED_FILES = {
    "build": ("operator.csv", "plan_certificate.json"),
    "predict": ("cluster1.csv", "cluster2.csv", "spiral.csv", "predict_report.json"),
    "verify": ("verify_report.json", "surrogate.csv", "predicted.csv"),
}
# operator.csv: two comment lines and a column header precede the entries
OPERATOR_HEADER_LINES = 3
PIN_COUNT = 128
PIN_STRIDE = 16411  # prime, so the sampled flat indices spread over the matrix
PIN_DIAGONAL = 32  # diagonal entries too: the constant-symbol operators are diagonal


def _first_line(path: Path) -> str:
    with path.open() as f:
        return f.readline().rstrip("\n")


def _csv_rows(path: Path) -> int:
    with path.open() as f:
        return sum(1 for line in f if not line.startswith("#")) - 1


def config_hashes(out: Path) -> tuple[dict, int]:
    """Config hash found in each CSV and JSON output (None when absent), and
    the number of SVG outputs that do not contain it."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            m = HASH.match(_first_line(path))
            found[path.name] = m.group(1) if m else None
        elif path.suffix == ".json":
            found[path.name] = json.loads(path.read_text()).get("config_sha256")
    digests = set(found.values()) - {None}
    svgs = sum(1 for path in out.glob("*.svg")
               if not any(d in path.read_text() for d in digests))
    return found, svgs


def verify_facts(out: Path) -> dict:
    verdict = json.loads((out / "verify_report.json").read_text())["verdict"]
    return {
        "verdict": verdict["verdict"],
        "per_size_counts": verdict["surrogate_params"]["per_size_counts"],
    }


def pin_indices(rows: int, cols: int) -> list[int]:
    spread = {(k * PIN_STRIDE) % (rows * cols) for k in range(PIN_COUNT)}
    step = max(1, min(rows, cols) // PIN_DIAGONAL)
    diagonal = {r * (cols + 1) for r in range(0, min(rows, cols), step)}
    return sorted(spread | diagonal)


def operator_entries(path: Path, indices) -> tuple[list[int], dict]:
    """Shape and the entries at the given flat row-major indices, read
    line by line so the check adds little to the process's memory."""
    wanted = {OPERATOR_HEADER_LINES + i: i for i in indices}
    last = max([1, *wanted])
    shape, entries = None, {}
    with path.open() as f:
        for lineno, line in enumerate(f):
            if lineno == 1:
                shape = [int(v) for v in line.split()[2:4]]
            if lineno in wanted:
                re_, im = line.split(",")
                entries[wanted[lineno]] = [float(re_), float(im)]
            if lineno >= last:
                break
    return shape, entries


def _close(a: float, b: float) -> bool:
    # 1e-12 plus one unit in the twelfth significant digit, the precision the
    # CSV writer keeps ("%.12g")
    return abs(a - b) <= 1e-12 + 1e-11 * abs(b)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def check(inv, rc, seed: int, pins: dict | None) -> tuple[list[str], int]:
    """Problems found in one invocation's outputs, and its SVG count."""
    out = inv.out
    missing = [n for n in EXPECTED_FILES[inv.command] if not (out / n).is_file()]
    if missing:
        return [f"missing outputs {missing} (exit {rc})"], 0
    problems = []
    hashes, svgs = config_hashes(out)
    if None in hashes.values() or len(set(hashes.values())) != 1:
        problems.append(f"config hash missing or inconsistent: {hashes}")
    name = inv.config.stem
    at_default = seed == DEFAULT_SEED and pins is not None

    if inv.command == "verify":
        report = json.loads((out / "verify_report.json").read_text())["verdict"]
        verdict = report["verdict"]
        if rc != {"PASS": 0, "FAIL": 1}.get(verdict):
            problems.append(f"verdict {verdict} with exit {rc}")
        if verdict != ("PASS" if report["distance"] <= report["tol"] else "FAIL"):
            problems.append(f"verdict {verdict} but distance {report['distance']} "
                            f"against tol {report['tol']}")
        counts = report["surrogate_params"]["per_size_counts"]
        surrogate = _csv_rows(out / "surrogate.csv")
        if surrogate > min(counts):
            problems.append(f"surrogate has {surrogate} points, per-size counts {counts}")
        if at_default and verify_facts(out) != pins["verify"][name]:
            problems.append(f"seed-0 verify facts {verify_facts(out)} != "
                            f"pinned {pins['verify'][name]}")
        return problems, svgs

    if rc != 0:
        problems.append(f"{inv.command} exited {rc}")
    if inv.command == "build":
        resid = json.loads((out / "plan_certificate.json").read_text()).get(
            "series_direct_residual")
        bound = SPEC["crosscheck_residual_bound"]
        if not (isinstance(resid, float) and math.isfinite(resid) and resid <= bound):
            problems.append(f"cross-check residual {resid} not finite or above {bound}")
        if at_default:
            pin = pins["operator"][name]
            shape, got = operator_entries(out / "operator.csv", map(int, pin["entries"]))
            bad = [i for i, v in pin["entries"].items()
                   if not all(_close(a, b) for a, b in zip(got.get(int(i), (math.nan,) * 2), v))]
            if shape != pin["shape"] or bad:
                problems.append(f"operator.csv shape {shape} or entries at flat "
                                f"indices {bad[:5]} differ from the seed-0 pins")
    return problems, svgs
