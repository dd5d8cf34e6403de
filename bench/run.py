"""qpspec benchmark: drives ``qpspec.cli.main`` on one named workload.

    python3 bench/run.py --workload verify_small --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it runs whole passes of the workload's CLI calls until
``--seconds`` of pass time have gone by (at least one pass), checks every
output, and reports the end-to-end metrics named in BENCHMARK.json:
``wall_s`` (median pass), ``setup_s`` (median of SETUP_SAMPLES fresh
interpreters that import qpspec and write the workload's configs) and
``peak_rss_mb`` (this process's peak resident memory).

With ``--trace 1`` it runs one untraced pass, then one pass with the span
tracer (bench/spans.py) wrapped around qpspec's public functions, and reports
the per-layer metrics plus ``trace.overhead_s``, the traced pass's wall time
minus the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
produced, environment and spans included, also goes to
``.bench_out/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

import os

# pinned before numpy loads; none may exceed nproc, and all load comes from
# this one process
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "HARDY_SPEC_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def load_program():
    """Import qpspec from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qpspec" / "cli.py").is_file():
        raise SystemExit(f"qpspec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import qpspec.cli

    if SRC.resolve() not in Path(qpspec.cli.__file__).resolve().parents:
        raise SystemExit(f"qpspec imported from {qpspec.cli.__file__}, not {SRC}")
    return qpspec.cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    for k, v in THREAD_PINS.items():
        if int(v) > nproc:
            raise SystemExit(f"{k}={v} exceeds nproc={nproc}")
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in THREAD_PINS},
    }


def setup_sample(workload: str, seed: int, base: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_sample.py"), workload, str(seed), str(base)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def run_pass(cli, invocations) -> tuple[dict, list]:
    """Run each CLI call once; return each call's wall time and exit code
    (None when the call raised)."""
    times = {}
    codes = []
    for inv in invocations:
        shutil.rmtree(inv.out, ignore_errors=True)
        start = time.perf_counter()
        try:
            rc = cli.main(inv.argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        times[inv.label] = time.perf_counter() - start
        codes.append(rc)
    return times, codes


class Tally:
    """Failed invocations, with the reasons, across the passes of a run."""

    def __init__(self, seed: int, pins):
        self.seed, self.pins = seed, pins
        self.attempted = self.failed = self.svgs_without_hash = self.output_bytes = 0
        self.problems: list[str] = []

    def add(self, invocations, codes) -> None:
        self.output_bytes = 0  # of the latest pass
        for inv, rc in zip(invocations, codes):
            self.attempted += 1
            try:
                found, svgs = checks.check(inv, rc, self.seed, self.pins)
            except (OSError, ValueError, KeyError, TypeError) as e:
                found, svgs = [f"outputs unreadable: {e!r}"], 0
            if rc is None:
                found.insert(0, "raised")
            self.svgs_without_hash += svgs
            self.output_bytes += sum(p.stat().st_size for p in inv.out.glob("*") if p.is_file())
            if found:
                self.failed += 1
                self.problems += [f"{inv.label}: {p}" for p in found]


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_program()
    env = environment()
    base = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    invocations = workloads.generate(args.workload, args.seed, base)
    pins = checks.load_pins() if args.seed == checks.DEFAULT_SEED else None
    tally = Tally(args.seed, pins)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env}
    if args.trace:
        untraced, codes = run_pass(cli, invocations)
        tally.add(invocations, codes)
        with spans.Tracer(run=f"{args.workload}-seed{args.seed}") as tracer:
            traced, codes = run_pass(cli, invocations)
        leftover = spans.wrapped_sites()
        if leftover:
            raise SystemExit(f"tracer left wrappers in place: {leftover}")
        tally.add(invocations, codes)
        values = spans.layer_metrics(tracer.spans)
        values["cli.output_bytes"] = tally.output_bytes
        values["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
        record.update(untraced_s=untraced, traced_s=traced,
                      spans=[asdict(s) for s in tracer.spans])
    else:
        # set-up samples go partly before and partly after the passes, so that
        # a slow spell of a shared machine does not cover all of them
        def sample(k):
            return setup_sample(args.workload, args.seed, base / "setup" / str(k))

        setup = [sample(k) for k in range(SETUP_SAMPLES // 2)]
        passes = []
        walls = []
        while not walls or sum(walls) < args.seconds:
            times, codes = run_pass(cli, invocations)
            passes.append(times)
            walls.append(sum(times.values()))
            tally.add(invocations, codes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup += [sample(k) for k in range(len(setup), SETUP_SAMPLES)]
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
        record.update(invocation_s=passes, setup_samples_s=setup)
    shutil.rmtree(base, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(bool(args.trace))}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record.update(result=result, problems=tally.problems,
                  svg_outputs_without_config_hash=tally.svgs_without_hash)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for p in tally.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: failed_frac {tally.failed}/{tally.attempted}"
          f" = {tally.failed / tally.attempted:g}; {tally.svgs_without_hash} SVG outputs"
          " carry no config hash (not counted as failures)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
