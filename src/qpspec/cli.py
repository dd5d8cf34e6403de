"""Batch front door: config ingestion, pipeline orchestration, reports.

Subcommands: predict (cluster points + spiral sweep + SVG), build (series
operator + plan certificate + cross-check), spectrum (pseudospectrum map and
level sets), verify (full containment pipeline with PASS/FAIL verdict), demo
(run the bundled catalog configs).  Every CSV and JSON file carries the
sha256 of the canonicalized config so reruns are traceable; numeric payloads
are deterministic given the seed.

Exit codes: 0 success/PASS, 1 FAIL verdict, 2 config error, 3 certification
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svg as svgmod
from . import textfmt
from .grids import BoundaryGrid, DomainError, FrequencyGrid, GridError
from .operators import MIN_DILATION_NODES
from .series import (
    QuasiParabolicMap,
    SeriesError,
    build_series,
    exact_constant_multiplier,
    plan_for_map,
    series_direct_residual,
)
from .spectra import (
    UsageError,
    containment_verdict,
    essential_spectrum_surrogate,
    predicted_set,
    pseudospectrum,
)
from .symbols import SymbolError, cluster_set, make_symbol, spot_check_samples

CONFIG_DIR = Path(__file__).parent / "configs"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CERT = 3

# values formatted per write of a CSV output
CSV_CHUNK = 4096


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Parsed and validated run configuration: every number passes one of
    the checks below, and a failed check is a ConfigError."""

    name: str
    psi1: dict
    psi2: dict
    p1: float
    p2: float
    frequency_extent: float
    frequency_nodes: int
    boundary_extent: float
    boundary_nodes: int
    plan_tol: float
    plan_alpha: float | None
    plan_n1: int | None
    plan_n2: int | None
    remainder_tol: float | None
    region: tuple
    resolution: tuple
    eps_list: tuple
    sizes: tuple
    t_samples: int
    seed: int
    raw: dict = field(repr=False)

    @classmethod
    def load(cls, path: Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}")
        return cls.from_dict(raw, default_name=Path(path).stem)

    @classmethod
    def from_dict(cls, raw: dict, default_name: str = "run") -> "RunConfig":
        try:
            _known_keys(raw, None, ("name", "symbols", "p1", "p2", "grids", "plan",
                                    "spectra", "t_samples", "seed"))
            sym = raw["symbols"]
            grids = raw.get("grids", {})
            plan = raw.get("plan", {})
            spectra = raw.get("spectra", {})
            _known_keys(sym, "symbols", ("psi1", "psi2"))
            _known_keys(grids, "grids", ("frequency_extent", "frequency_nodes",
                                         "boundary_extent", "boundary_nodes"))
            _known_keys(plan, "plan", ("tol", "alpha", "n1", "n2", "remainder_tol"))
            _known_keys(spectra, "spectra", ("region", "resolution", "eps", "sizes"))
            p1 = _positive(raw.get("p1", 1.0), "p1")
            p2 = _positive(raw.get("p2", 1.0), "p2")
            dilated = p1 != 1.0 or p2 != 1.0
            cfg = cls(
                name=raw.get("name", default_name),
                psi1=_symbol(sym["psi1"], "symbols.psi1"),
                psi2=_symbol(sym["psi2"], "symbols.psi2"),
                p1=p1,
                p2=p2,
                frequency_extent=_positive(grids.get("frequency_extent", 10.0),
                                           "grids.frequency_extent"),
                frequency_nodes=_nodes(grids.get("frequency_nodes", 32),
                                       "grids.frequency_nodes", dilated),
                boundary_extent=_positive(grids.get("boundary_extent", 60.0),
                                          "grids.boundary_extent"),
                boundary_nodes=_integer(grids.get("boundary_nodes", 768),
                                        "grids.boundary_nodes", 2),
                plan_tol=_positive(plan.get("tol", 1e-8), "plan.tol"),
                plan_alpha=_optional(_positive, plan.get("alpha"), "plan.alpha"),
                plan_n1=_optional(_integer, plan.get("n1"), "plan.n1"),
                plan_n2=_optional(_integer, plan.get("n2"), "plan.n2"),
                remainder_tol=_optional(_positive, plan.get("remainder_tol"),
                                        "plan.remainder_tol"),
                region=_region(spectra.get("region", (-1.1, 1.1, -1.1, 1.1))),
                resolution=_resolution(spectra.get("resolution", (129, 129))),
                eps_list=_eps(spectra.get("eps", (1e-2,))),
                sizes=_sizes(spectra.get("sizes", (32, 48, 64)), "spectra.sizes", dilated),
                t_samples=_integer(raw.get("t_samples", 64), "t_samples", 1),
                seed=_integer(raw.get("seed", 0), "seed"),
                raw=raw,
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad config structure: {e}")
        return cfg

    def apply_overrides(
        self, seed: int | None = None, sizes: str | None = None, eps: str | None = None
    ) -> None:
        """Apply the --seed/--sizes/--eps flags to the fields and to the
        raw config that digest() hashes, so the hash names what ran."""
        if seed is not None:
            self.seed = seed
            self.raw["seed"] = seed
        spectra = dict(self.raw.get("spectra", {}))
        if sizes:
            self.sizes = _sizes((int(s) for s in sizes.split(",")), "--sizes",
                                self.p1 != 1.0 or self.p2 != 1.0)
            spectra["sizes"] = list(self.sizes)
        if eps:
            self.eps_list = _eps(float(s) for s in eps.split(","))
            spectra["eps"] = list(self.eps_list)
        if sizes or eps:
            self.raw["spectra"] = spectra

    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def symbols(self):
        """psi1 and psi2, both checked on one spot-check draw."""
        samples = spot_check_samples(self.seed)

        def mk(d):
            return make_symbol(
                d["expr"],
                d["im_lower_bound"],
                d["sup_bound"],
                d.get("class", "continuous-on-closure"),
                samples=samples,
            )

        return mk(self.psi1), mk(self.psi2)

    def qmap(self) -> QuasiParabolicMap:
        s1, s2 = self.symbols()
        return QuasiParabolicMap(self.p1, self.p2, s1, s2)

    def fgrids(self, nodes=None):
        n = nodes or self.frequency_nodes
        g = FrequencyGrid.uniform(self.frequency_extent, n)
        return (g, g)

    def bgrids(self):
        g = BoundaryGrid.uniform(self.boundary_extent, self.boundary_nodes)
        return (g, g)


# Checks of single config values.  Each raises ValueError naming the field,
# which from_dict reports as a config error; none truncates or rounds.


def _known_keys(section: dict, label: str | None, known: tuple) -> None:
    """Reject a config section (None: the top level) that is not a JSON
    object, and the first key of one that the config does not read, so
    that a misspelled setting is an error and not a default."""
    if not isinstance(section, dict):
        what = "the config" if label is None else label
        raise ValueError(f"{what} must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(known))
    if unknown:
        where = "at the top level" if label is None else f"in {label}"
        raise ValueError(f"unknown key {unknown[0]!r} {where}; "
                         f"the known keys are {', '.join(known)}")


def _number(v, label: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"{label} must be a finite number, got {v!r}")
    return float(v)


def _positive(v, label: str) -> float:
    x = _number(v, label)
    if x <= 0:
        raise ValueError(f"{label} must be positive, got {v!r}")
    return x


def _integer(v, label: str, least: int = 0) -> int:
    x = _number(v, label)
    if x != int(x) or x < least:
        raise ValueError(f"{label} must be an integer >= {least}, got {v!r}")
    return int(x)


def _optional(check, v, label: str):
    return None if v is None else check(v, label)


def _region(values) -> tuple:
    region = tuple(_number(v, "spectra.region") for v in values)
    if len(region) != 4 or region[0] >= region[1] or region[2] >= region[3]:
        raise ValueError(
            "spectra.region must be 4 numbers (re_lo, re_hi, im_lo, im_hi) with "
            f"lo < hi, got {list(values)!r}"
        )
    return region


def _symbol(entry: dict, label: str) -> dict:
    """A symbol entry with no unknown key, a string expr and both bounds
    checked as numbers; make_symbol checks them against the expression."""
    _known_keys(entry, label, ("expr", "im_lower_bound", "sup_bound", "class"))
    if not isinstance(entry["expr"], str):
        raise ValueError(f"{label}.expr must be a string, got {entry['expr']!r}")
    return {
        **entry,
        "im_lower_bound": _number(entry["im_lower_bound"], f"{label}.im_lower_bound"),
        "sup_bound": _number(entry["sup_bound"], f"{label}.sup_bound"),
    }


def _nodes(v, label: str, dilated: bool) -> int:
    """Frequency nodes per axis: at least 2, and at least
    MIN_DILATION_NODES for a map with a dilation (p1 or p2 not 1)."""
    n = _integer(v, label, 2)
    if dilated and n < MIN_DILATION_NODES:
        raise ValueError(
            f"{label} = {n}: a map with p1 or p2 not 1 needs at least "
            f"{MIN_DILATION_NODES} frequency nodes per axis"
        )
    return n


def _sizes(values, label: str, dilated: bool) -> tuple:
    """Finite-section sizes, each checked as frequency nodes per axis."""
    return tuple(_nodes(n, label, dilated) for n in values)


def _resolution(values) -> tuple:
    resolution = tuple(_integer(v, "spectra.resolution", 32) for v in values)
    if len(resolution) != 2:
        raise ValueError(f"spectra.resolution must be 2 integers, got {list(values)!r}")
    return resolution


def _eps(values) -> tuple:
    eps = tuple(_positive(v, "spectra.eps") for v in values)
    if not eps:
        raise ValueError("spectra.eps must list at least one level")
    return eps


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, digest: str, blocks, shape: tuple | None = None) -> None:
    """Write a config line, an optional "# shape rows cols" line, the "re,im"
    header and then one value per line, row-major through each block in
    turn, as "%.12g,%.12g" of its real and imaginary parts.  Values are
    formatted and written CSV_CHUNK at a time, so no output is ever held
    whole as text."""
    head = [f"# config {digest}"]
    if shape is not None:
        head.append(f"# shape {shape[0]} {shape[1]}")
    with open(path, "wb") as f:
        f.write(("\n".join(head + ["re,im"]) + "\n").encode())
        for block in blocks:
            flat = np.asarray(block).reshape(-1)
            for lo in range(0, flat.size, CSV_CHUNK):
                z = flat[lo:lo + CSV_CHUNK]
                f.write(textfmt.rows(z.real, z.imag))


def _write_json(path: Path, payload: dict, digest: str) -> None:
    payload = dict(payload)
    payload["config_sha256"] = digest
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_js) + "\n")


def _js(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, complex):
        return [o.real, o.imag]
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


# ---------------------------------------------------------------------------
# subcommands


def _predict(cfg: RunConfig, s1, s2):
    # cluster_set raises the SymbolError that build, spectrum and verify
    # meet in toeplitz_halfplane when a factor has no limit at infinity
    c1 = cluster_set(s1)
    c2 = cluster_set(s2)
    return c1, c2, predicted_set(c1.points[0], c2.points[0], t_samples=cfg.t_samples)


def cmd_predict(cfg: RunConfig, out: Path) -> int:
    digest = cfg.digest()
    c1, c2, pred = _predict(cfg, *cfg.symbols())
    _write_csv(out / "cluster1.csv", digest, [c1.points])
    _write_csv(out / "cluster2.csv", digest, [c2.points])
    # sweep order (t1 outer, t2 inner) so the first row is t=0 -> 1
    _write_csv(out / "spiral.csv", digest, [pred.image])
    svgmod.spiral_figure(out / "spiral.svg", pred.image)
    _write_json(
        out / "predict_report.json",
        {
            "name": cfg.name,
            "seed": cfg.seed,
            "predicted_points": len(pred.points),
            "t_max": pred.params["t_max"],
            "params": pred.params,
        },
        digest,
    )
    return EXIT_OK


def _plan(cfg: RunConfig):
    qmap = cfg.qmap()
    plan = plan_for_map(
        qmap,
        tol=cfg.plan_tol,
        seed=cfg.seed,
        alpha=cfg.plan_alpha,
        n1=cfg.plan_n1,
        n2=cfg.plan_n2,
    )
    return qmap, plan


def cmd_build(cfg: RunConfig, cross: bool, out: Path) -> int:
    digest = cfg.digest()
    try:
        qmap, plan = _plan(cfg)
        op = build_series(qmap, plan, cfg.fgrids())
    except SeriesError as e:
        _write_json(out / "build_report.json", {"error": str(e)}, digest)
        raise
    _write_csv(out / "operator.csv", digest, op.row_blocks(), op.shape)
    cert = plan.as_dict()
    cert.update(
        {
            "name": cfg.name,
            "seed": cfg.seed,
            "p1": cfg.p1,
            "p2": cfg.p2,
            "dilation_applied": cfg.p1 != 1.0 or cfg.p2 != 1.0,
            "frequency_nodes": cfg.frequency_nodes,
            "compression_tail": op.compression_tail,
            # a capped truncation order or a recompression tail shows here;
            # exit 3 is kept for plan.remainder_tol
            "tol_met": plan.remainder + op.compression_tail <= cfg.plan_tol,
        }
    )
    if cross:
        resid = series_direct_residual(op, qmap, cfg.bgrids(), seed=cfg.seed)
        cert["series_direct_residual"] = resid
    shifts = _constant_shifts(qmap)
    if shifts is not None:
        exact = exact_constant_multiplier(*shifts, cfg.fgrids())
        cert["constant_closed_form_residual"] = float(np.max([
            np.max(np.abs(a - b)) for a, b in zip(op.row_blocks(), exact.row_blocks())
        ]))
    _write_json(out / "plan_certificate.json", cert, digest)
    return EXIT_CERT if _remainder_fails(cfg, plan) else EXIT_OK


def _remainder_fails(cfg: RunConfig, plan) -> bool:
    """True, with a message, when the plan's remainder bound exceeds the
    configured plan.remainder_tol."""
    if cfg.remainder_tol is None or plan.remainder <= cfg.remainder_tol:
        return False
    print(
        f"certification failure: remainder bound {plan.remainder:.3e} exceeds "
        f"tolerance {cfg.remainder_tol:.3e}",
        file=sys.stderr,
    )
    return True


def _constant_shifts(qmap: QuasiParabolicMap):
    """(psi1, psi2) when phi is the translation z -> z + (psi1, psi2), i.e.
    p1 = p2 = 1 and both parsed symbols are constants; None otherwise."""
    syms = (qmap.psi1, qmap.psi2)
    if qmap.p1 != 1.0 or qmap.p2 != 1.0 or any(s.expr.single_variable() != 0 for s in syms):
        return None
    return tuple(complex(s.expr(0.0, 0.0)) for s in syms)


def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    digest = cfg.digest()
    qmap, plan = _plan(cfg)
    if _remainder_fails(cfg, plan):
        return EXIT_CERT
    op = build_series(qmap, plan, cfg.fgrids())
    pmap, levels = pseudospectrum(op, cfg.region, cfg.resolution, cfg.eps_list)
    _write_csv(out / "sigma_min.csv", digest, [pmap.values], pmap.values.shape)
    for eps, ls in zip(cfg.eps_list, levels):
        _write_csv(out / f"level_{eps:g}.csv", digest, [ls.points.points])
    _write_json(
        out / "spectrum_report.json",
        {
            "name": cfg.name,
            "seed": cfg.seed,
            "region": cfg.region,
            "resolution": cfg.resolution,
            "eps": list(cfg.eps_list),
            "level_counts": [len(ls.points) for ls in levels],
            "plan": plan.as_dict(),
            **pmap.stats,
        },
        digest,
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    digest = cfg.digest()
    qmap, plan = _plan(cfg)
    if _remainder_fails(cfg, plan):
        return EXIT_CERT
    _, _, pred = _predict(cfg, qmap.psi1, qmap.psi2)

    def builder(n):
        return build_series(qmap, plan, cfg.fgrids(n))

    surro = essential_spectrum_surrogate(
        builder, list(cfg.sizes), cfg.eps_list[0], cfg.region, cfg.resolution
    )
    verdict = containment_verdict(pred, surro)
    report = {
        "name": cfg.name,
        "seed": cfg.seed,
        "plan": plan.as_dict(),
        "verdict": verdict,
    }
    _write_json(out / "verify_report.json", report, digest)
    _write_csv(out / "surrogate.csv", digest, [surro.points.points])
    _write_csv(out / "predicted.csv", digest, [pred.points.points])
    svgmod.overlay_figure(
        out / "overlay.svg", surro.params["eps"], surro.points.points, pred.points.points
    )
    print(f"{cfg.name}: {verdict['verdict']} "
          f"(distance {verdict['distance']:.4g}, tol {verdict['tol']:.4g})")
    return EXIT_OK if verdict["verdict"] == "PASS" else EXIT_FAIL


def run_command(command: str, cfg: RunConfig, out: Path, cross: bool = True) -> int:
    """Run one subcommand and map its failures onto the exit codes."""
    try:
        if command == "predict":
            return cmd_predict(cfg, out)
        if command == "build":
            return cmd_build(cfg, cross, out)
        if command == "spectrum":
            return cmd_spectrum(cfg, out)
        return cmd_verify(cfg, out)
    except SeriesError as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_CERT
    except (SymbolError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, GridError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


DEMO_RUNS = (
    ("constants_basic", "verify"),
    ("cay_quarter", "build"),
    ("separable_mix", "predict"),
    ("dilation_case", "build"),
)


def cmd_demo(out: Path, seed: int | None) -> int:
    worst = EXIT_OK
    for name, action in DEMO_RUNS:
        cfg = RunConfig.load(CONFIG_DIR / f"{name}.json")
        cfg.apply_overrides(seed=seed)
        sub = out / name
        t0 = time.time()
        try:
            sub.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            print(f"error: cannot create the output directory: {e}", file=sys.stderr)
            rc = EXIT_CONFIG
        else:
            rc = run_command(action, cfg, sub)
        print(f"demo {name} ({action}): exit {rc} in {time.time() - t0:.1f}s")
        worst = max(worst, rc)
    return worst


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="qpspec",
        description="quasi-parabolic composition operator toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("predict", "build", "spectrum", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--sizes", type=str, default=None)
        p.add_argument("--eps", type=str, default=None)
        p.add_argument("--no-crosscheck", action="store_true")
    d = sub.add_parser("demo")
    d.add_argument("--out", type=Path, default=Path("out"))
    d.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)

    out = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create the output directory: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        seed = _optional(_integer, args.seed, "--seed")
        if args.command != "demo":
            cfg = RunConfig.load(args.config)
            cfg.apply_overrides(seed, args.sizes, args.eps)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "demo":
        return cmd_demo(out, seed)
    return run_command(args.command, cfg, out, cross=not args.no_crosscheck)


if __name__ == "__main__":
    sys.exit(main())
