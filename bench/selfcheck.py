"""Self-checks for the benchmark's own code; exits non-zero on the first
failure.

    python3 bench/selfcheck.py

* the tracer wraps every lookup site of a traced function and puts every
  original back on exit, so untraced passes really are untraced;
* self time is computed correctly on nested and overlapping spans;
* the generated configs are byte-identical for a given seed, differ between
  seeds, and equal the bundled catalog at seed 0.
"""

import json
import shutil
import sys

import run  # pins the thread counts before numpy loads

import spans
import workloads
from spans import Span


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def qpspec_bindings() -> dict:
    return {(n, a): v for n, m in spans.package_modules()
            for a, v in vars(m).items() if callable(v)}


def check_tracer_restores() -> None:
    run.load_program()
    import qpspec.cli
    import qpspec.series
    import qpspec.symbols

    before = qpspec_bindings()
    with spans.Tracer(run="selfcheck") as tracer:
        for mod in (qpspec.cli, qpspec.series):
            expect(hasattr(mod.build_series, "__bench_original__"),
                   f"{mod.__name__}.build_series is not wrapped")
        for layer, fname, _ in spans.TARGETS:
            mod = sys.modules[f"qpspec.{layer}"]
            expect(hasattr(getattr(mod, fname), "__bench_original__"),
                   f"qpspec.{layer}.{fname} is not wrapped")
        sym = qpspec.symbols.make_symbol("i", 1.0, 1.0, "constant")
        qpspec.symbols.closure_image(sym)
        expect([s.name for s in tracer.spans] == ["symbols.closure_image"],
               f"traced call gave spans {[s.name for s in tracer.spans]}")
    after = qpspec_bindings()
    expect(before.keys() == after.keys()
           and all(before[k] is after[k] for k in before),
           "tracer did not restore every binding")
    expect(not spans.wrapped_sites(), f"wrappers left: {spans.wrapped_sites()}")
    qpspec.symbols.closure_image(sym)
    expect(len(tracer.spans) == 1, "a call after the tracer closed was recorded")


def check_self_time() -> None:
    # a [0,10] > b [1,4], c [5,9] > d [6,8]; e [2,3] overlaps b as if from
    # another thread, so a's covered time is the union [1,4] u [5,9]
    s = [
        Span(0, "cli.main", 0.0, 10.0, None, "r"),
        Span(1, "series.build_series", 1.0, 4.0, 0, "r"),
        Span(2, "series.build_series", 5.0, 9.0, 0, "r"),
        Span(3, "series.build_series", 6.0, 8.0, 2, "r"),
        Span(4, "operators.dilation", 2.0, 3.0, 0, "r"),
    ]
    got = spans.self_times(s)
    expect(got == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0, 4: 1.0}, f"self times {got}")
    m = spans.layer_metrics(s)
    expect(m["cli.self_s"] == 3.0 and m["series.self_s"] == 7.0
           and m["operators.self_s"] == 1.0, f"layer self times {m}")
    # d is nested in c, another build_series, so it adds no inclusive time
    expect(m["series.build_series_s"] == 7.0 and m["series.build_series_calls"] == 3,
           f"inclusive time {m['series.build_series_s']}")


def check_generator() -> None:
    base = run.WORK / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for wl in workloads.WORKLOADS:
            files = {}
            for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
                workloads.generate(wl, seed, base / wl / tag)
                files[tag] = {p.name: p.read_bytes()
                              for p in sorted((base / wl / tag / "inputs").iterdir())}
            expect(files["a"] == files["b"], f"{wl}: seed 7 configs differ between runs")
            expect(files["a"] != files["c"], f"{wl}: seeds 7 and 8 give the same configs")
        for inv in workloads.generate("build_catalog", 0, base / "zero"):
            shipped = json.loads((workloads.CATALOG / inv.config.name).read_text())
            expect(json.loads(inv.config.read_text()) == shipped,
                   f"seed-0 {inv.config.name} differs from the bundled config")
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    check_tracer_restores()
    check_self_time()
    check_generator()
    print("selfcheck: all passed")
