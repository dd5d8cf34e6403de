"""Workload generator: derives each workload's configs and CLI flags from the
bundled catalog for one seed.

The program only ever sees the files written here; the bundled catalog in
``src/qpspec/configs/`` is read, never written.  The workload seed goes into
each config's ``seed`` field, which drives every random choice the program
makes (cluster-set sampling, the closure cloud behind the alpha search, the
cross-check test vectors).  Sizes and grids stay fixed, so the cost of a
workload does not depend on the seed; seed 0 reproduces the shipped configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "src" / "qpspec" / "configs"

CATALOG_CONFIGS = ("cay_quarter", "constants_basic", "dilation_case", "separable_mix")
VERIFY_SIZES = "8,12,16"
VERIFY_RESOLUTION = [32, 32]
# eps per verify config: cay_quarter keeps its own default (nothing survives,
# verdict FAIL); separable_mix at 5e-2 keeps survivors at every size (PASS)
VERIFY_EPS = {"cay_quarter": "0.01", "separable_mix": "0.05"}

# genuinely two-variable map: psi_j = c_j + a_j cay(z1) cay(z2), |cay| < 1 on
# the half-plane, so Im psi_j >= Im c_j - |a_j| and |psi_j| <= |c_j| + |a_j|;
# the declared bounds keep a 0.05 margin on both
TWOVAR_SYMBOLS = {
    "psi1": {"expr": "i + 0.1*cay(z1)*cay(z2)", "im_lower_bound": 0.85,
             "sup_bound": 1.15, "class": "continuous-on-closure"},
    "psi2": {"expr": "2*i - 0.2*cay(z1)*cay(z2)", "im_lower_bound": 1.75,
             "sup_bound": 2.25, "class": "continuous-on-closure"},
}
TWOVAR_BOUNDARY_NODES = 256


@dataclass(frozen=True)
class Invocation:
    """One ``qpspec`` CLI call of a workload."""

    label: str
    command: str
    config: Path
    out: Path
    flags: tuple = ()

    @property
    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out),
                *self.flags]


def program_seed(seed: int) -> int:
    """Map any integer workload seed onto the non-negative seeds the program
    accepts; 0 stays 0."""
    return seed % 2**31


def _catalog(name: str) -> dict:
    return json.loads((CATALOG / f"{name}.json").read_text())


def _write(cfg: dict, inputs: Path) -> Path:
    path = inputs / f"{cfg['name']}.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _verify_small(seed: int, inputs: Path, outs: Path) -> list[Invocation]:
    runs = []
    for name, eps in VERIFY_EPS.items():
        cfg = _catalog(name)
        cfg["seed"] = seed
        cfg["spectra"] = {**cfg.get("spectra", {}), "resolution": VERIFY_RESOLUTION}
        runs.append(Invocation(f"{name}/verify", "verify", _write(cfg, inputs),
                               outs / name / "verify",
                               ("--sizes", VERIFY_SIZES, "--eps", eps)))
    return runs


def _build_catalog(seed: int, inputs: Path, outs: Path) -> list[Invocation]:
    runs = []
    for name in CATALOG_CONFIGS:
        cfg = _catalog(name)
        cfg["seed"] = seed
        written = _write(cfg, inputs)
        for command in ("build", "predict"):
            runs.append(Invocation(f"{cfg['name']}/{command}", command, written,
                                   outs / cfg["name"] / command))
    return runs


def _build_twovar(seed: int, inputs: Path, outs: Path) -> list[Invocation]:
    cfg = _catalog("cay_quarter")
    cfg["name"] = "twovar"
    cfg["seed"] = seed
    cfg["symbols"] = TWOVAR_SYMBOLS
    cfg["grids"] = {**cfg["grids"], "boundary_nodes": TWOVAR_BOUNDARY_NODES}
    return [Invocation("twovar/build", "build", _write(cfg, inputs),
                       outs / "twovar" / "build")]


WORKLOADS = {
    "verify_small": _verify_small,
    "build_catalog": _build_catalog,
    "build_twovar": _build_twovar,
}


def generate(workload: str, seed: int, base: Path) -> list[Invocation]:
    """Write the workload's configs under ``base/inputs`` and return its CLI
    calls, whose outputs go under ``base/out``."""
    inputs = base / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](program_seed(seed), inputs, base / "out")
