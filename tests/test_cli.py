import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from qpspec.cli import CONFIG_DIR, DEMO_RUNS, ConfigError, RunConfig, cmd_build, main
from qpspec.operators import OperatorMatrix
from qpspec.spectra import predicted_set
from qpspec.symbols import DEDUP_RESOLUTION, cluster_set


def _config(tmp_path, name="run", **over):
    raw = {
        "name": name,
        "symbols": {
            "psi1": {"expr": "i", "im_lower_bound": 0.9, "sup_bound": 1.1,
                     "class": "constant"},
            "psi2": {"expr": "2*i", "im_lower_bound": 1.9, "sup_bound": 2.1,
                     "class": "constant"},
        },
        "grids": {"frequency_extent": 8.0, "frequency_nodes": 16,
                  "boundary_extent": 20.0, "boundary_nodes": 160},
        "spectra": {"region": [-1.1, 1.1, -1.1, 1.1], "resolution": [33, 33],
                    "eps": [0.05], "sizes": [12, 16, 20]},
        "t_samples": 32,
        "seed": 0,
    }
    raw.update(over)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["build", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["build", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_output_directory_that_cannot_be_created_exits_2(tmp_path, capsys):
    # an --out that names a file, and demo's per-config directories named by
    # files, used to end in a FileExistsError traceback, exit 1
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["build", "--config", str(_config(tmp_path)), "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot create the output directory")
    demo = tmp_path / "demo"
    demo.mkdir()
    for name, _ in DEMO_RUNS:
        (demo / name).write_text("")
    assert main(["demo", "--out", str(demo)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot create the output directory") == len(DEMO_RUNS)


def test_invalid_symbol_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path)
    raw = json.loads(cfg.read_text())
    # claimed lower bound on Im psi is violated by the constant value
    raw["symbols"]["psi1"]["im_lower_bound"] = 5.0
    cfg.write_text(json.dumps(raw))
    rc = main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command", ["build", "predict", "verify"])
def test_non_finite_symbol_exits_2(tmp_path, capsys, command):
    # NaN passes both bound checks (Im psi >= 0.9, |psi| <= 1.1): build used to
    # write a nan operator.csv certified with tol_met true, predict a nan
    # cluster point, and verify ended in a traceback with exit 1
    cfg = _config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["symbols"]["psi1"]["expr"] = "i + 1/(z1-z1)"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "operator.csv").exists()


def test_bad_sizes_flag_exits_2(tmp_path):
    cfg = _config(tmp_path)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--sizes", "a,b"])
    assert rc == 2


@pytest.mark.parametrize("flag, value", [
    ("--sizes", "0"), ("--eps", "-1"), ("--seed", "-1"), ("--sizes", "1,2,3"),
])
def test_bad_override_value_exits_2(tmp_path, capsys, flag, value):
    # size 0 used to fall back to frequency_nodes, eps -1 to a FAIL verdict;
    # seed -1 and size 1 used to end in a traceback
    cfg = _config(tmp_path)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"), flag, value])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


def test_config_validation_rejects_nonpositive():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({
            "symbols": {"psi1": {"expr": "i", "im_lower_bound": 0.9,
                                 "sup_bound": 1.1},
                        "psi2": {"expr": "i", "im_lower_bound": 0.9,
                                 "sup_bound": 1.1}},
            "grids": {"frequency_nodes": -4},
        })


@pytest.mark.parametrize("section, key, value", [
    ("plan", "alpha", "abc"),
    ("plan", "alpha", -1),
    ("plan", "n1", 2.5),
    ("plan", "n2", -3),
    ("plan", "remainder_tol", "x"),
    ("spectra", "region", [-1.1, 1.1, -1.1]),
    ("spectra", "region", [1.1, -1.1, -1.1, 1.1]),
    ("spectra", "eps", []),
    ("spectra", "eps", [-1]),
    ("spectra", "sizes", "abc"),
    ("spectra", "sizes", [12, 16.5]),
    # a section of None is a top-level key
    (None, "p1", float("nan")),
    ("grids", "frequency_nodes", 16.7),
    ("grids", "frequency_nodes", 1),
    ("grids", "boundary_nodes", True),
    (None, "t_samples", 2.5),
    (None, "seed", 1.5),
    (None, "seed", -1),
    ("spectra", "resolution", [40, 40, 40]),
    ("spectra", "resolution", "ab"),
    ("symbols", "psi1", {"expr": "i", "im_lower_bound": float("nan"), "sup_bound": 1.1}),
    ("symbols", "psi1", {"expr": "i", "im_lower_bound": 0.9, "sup_bound": "abc"}),
    ("symbols", "psi1", {"expr": "i", "im_lower_bound": 0.9}),
    # misspelled keys, which used to be ignored in favour of the defaults
    ("grids", "frequency_node", 16),
    ("plan", "toll", 1e-8),
    (None, "spectrum", {"sizes": [12, 16, 20]}),
    ("symbols", "psi1", {"expr": "i", "im_lower_bound": 0.9, "sup_bound": 1.1,
                         "sup_bnd": 1.1}),
    # a section that is not an object, which used to end in a traceback
    (None, "grids", None),
    # an expression that is not a string, which used to end in a traceback too
    ("symbols", "psi1", {"expr": 5, "im_lower_bound": 0.9, "sup_bound": 1.1}),
    ("symbols", "psi1", {"expr": ["i"], "im_lower_bound": 0.9, "sup_bound": 1.1}),
    # a section that is a list, which passed the key check and then ended in
    # a traceback
    (None, "grids", []),
    (None, "plan", ["tol"]),
    (None, "spectra", []),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, section, key, value):
    cfg = _config(tmp_path)
    raw = json.loads(cfg.read_text())
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    cfg.write_text(json.dumps(raw))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build", "predict"])
@pytest.mark.parametrize("path, where", [
    (("grids", "frequency_node"), "'frequency_node' in grids"),
    (("spectrum",), "'spectrum' at the top level"),
    (("symbols", "psi2", "sup_bnd"), "'sup_bnd' in symbols.psi2"),
])
def test_unknown_config_key_is_named_and_exits_2(tmp_path, capsys, command, path, where):
    cfg = _config(tmp_path)
    raw = json.loads(cfg.read_text())
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = 1
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"unknown key {where}" in err
    assert not out.exists() or list(out.iterdir()) == []


def test_dilation_on_three_frequency_nodes_exits_2(tmp_path, capsys):
    raw = json.loads((CONFIG_DIR / "dilation_case.json").read_text())
    raw["grids"].update(frequency_nodes=3, boundary_nodes=160)
    path = tmp_path / "dilation_case.json"
    path.write_text(json.dumps(raw))
    assert main(["build", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "at least 4 frequency nodes" in err
    assert err.startswith("config error:")


# a dilation's 4-node rule is checked when the config loads, so every
# subcommand exits 2 before any work, predict included
@pytest.mark.parametrize("command, nodes, sizes, flags", [
    ("predict", 3, [8, 12, 16], []),
    ("verify", 8, [3, 8, 12], []),
    ("verify", 8, [8, 12, 16], ["--sizes", "3,8,12"]),
])
def test_dilation_below_four_nodes_is_a_config_error(tmp_path, capsys, command, nodes, sizes,
                                                     flags):
    raw = json.loads((CONFIG_DIR / "dilation_case.json").read_text())
    raw["grids"].update(frequency_nodes=nodes, boundary_nodes=160)
    raw["spectra"] = {"resolution": [32, 32], "sizes": sizes}
    path = tmp_path / "dilation_case.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "at least 4 frequency nodes" in err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# predict


def test_predict_outputs(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = main(["predict", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = (out / "spiral.csv").read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "re,im"
    first = [float(v) for v in lines[2].split(",")]
    assert first == pytest.approx([1.0, 0.0])  # t = 0 comes first
    svg = (out / "spiral.svg").read_text()
    assert svg.count("<polyline") == 1  # one spiral: one pair of cluster points
    assert "unit-circle-guide" in svg
    report = json.loads((out / "predict_report.json").read_text())
    assert report["config_sha256"] == lines[0].split()[-1]
    # each cluster file holds the one exact limit at infinity
    assert _csv_points(out / "cluster1.csv").tolist() == [1j]
    assert _csv_points(out / "cluster2.csv").tolist() == [2j]


def _csv_points(path):
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([complex(*map(float, row.split(","))) for row in rows[1:]])


def test_spiral_csv_is_the_predicted_set(tmp_path):
    raw = json.loads((CONFIG_DIR / "separable_mix.json").read_text())
    raw["t_samples"] = 8
    path = tmp_path / "separable_mix.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["predict", "--config", str(path), "--out", str(out)]) == 0
    spiral = _csv_points(out / "spiral.csv")
    # each symbol has a limit at infinity: one exact cluster point, one sweep
    z1 = _csv_points(out / "cluster1.csv")
    z2 = _csv_points(out / "cluster2.csv")
    assert z1.tolist() == [0.25 + 1j] and z2.tolist() == [-0.5 + 2j]
    s1, s2 = RunConfig.load(path).symbols()
    assert abs(cluster_set(s1).points - (0.25 + 1j)).max() < 1e-12
    assert abs(cluster_set(s2).points - (-0.5 + 2j)).max() < 1e-12
    assert spiral.size == 8**2
    pts = predicted_set(z1[0], z2[0], t_samples=8).points.points

    def dist(a, b):
        tree = cKDTree(np.column_stack([b.real, b.imag]))
        return float(np.max(tree.query(np.column_stack([a.real, a.imag]))[0]))

    # the CSV keeps 12 significant digits
    assert dist(spiral, pts) <= DEDUP_RESOLUTION + 1e-11
    assert dist(pts[pts != 0], spiral) <= 1e-11


# ---------------------------------------------------------------------------
# build


def test_build_outputs_and_certificate(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = main(["build", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    cert = json.loads((out / "plan_certificate.json").read_text())
    assert 0.0 < cert["delta"] < 1.0
    assert cert["remainder_bound"] > 0.0
    assert cert["series_direct_residual"] < 0.05
    assert cert["constant_closed_form_residual"] < 1e-10
    assert cert["compression_tail"] == 0.0
    assert cert["tol_met"] is True
    header = (out / "operator.csv").read_text().splitlines()[0]
    assert header.startswith("# config ")


def test_build_no_crosscheck_skips_residual(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = main(["build", "--config", str(cfg), "--out", str(out),
               "--no-crosscheck"])
    assert rc == 0
    cert = json.loads((out / "plan_certificate.json").read_text())
    assert "series_direct_residual" not in cert


@pytest.mark.parametrize(
    "expr, declared, closed_form",
    [("i + 0.25*cay(z1)", "constant", False), ("i", "continuous-on-closure", True)],
    ids=["declared_constant", "undeclared_constant"],
)
def test_closed_form_check_follows_the_parsed_symbol(tmp_path, expr, declared, closed_form):
    # a constant is a parsed expression in neither variable; the declared
    # class plays no part
    cfg = _config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["symbols"]["psi1"] = {"expr": expr, "im_lower_bound": 0.7, "sup_bound": 1.3,
                              "class": declared}
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out), "--no-crosscheck"]) == 0
    cert = json.loads((out / "plan_certificate.json").read_text())
    if closed_form:
        assert cert["constant_closed_form_residual"] < 1e-10
    else:
        assert "constant_closed_form_residual" not in cert


def test_build_reruns_are_byte_identical(tmp_path):
    cfg = _config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["build", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["build", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "operator.csv").read_bytes() == (out2 / "operator.csv").read_bytes()
    c1 = json.loads((out1 / "plan_certificate.json").read_text())
    c2 = json.loads((out2 / "plan_certificate.json").read_text())
    assert c1 == c2


def _small_catalog_config(tmp_path, name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grids"].update(frequency_nodes=12, boundary_nodes=160)
    raw["spectra"] = {"resolution": [32, 32], "sizes": [6, 8, 10]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize(
    "name, command, code",
    [("cay_quarter", "build", 0), ("cay_quarter", "verify", 1),
     ("dilation_case", "build", 0), ("dilation_case", "verify", 1)],
)
def test_build_and_verify_never_form_factored_entries(tmp_path, monkeypatch, name, command, code):
    # every reader of a per-axis operator goes through row_blocks() or its
    # Kronecker pair; the n^2 x n^2 entries are a conversion for tests only
    dense = OperatorMatrix.entries.fget

    def entries(op):
        if len(op.terms) == 1:
            raise AssertionError("formed the entries of a factored operator")
        return dense(op)

    monkeypatch.setattr(OperatorMatrix, "entries", property(entries))
    path = _small_catalog_config(tmp_path, name)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code


TWOVAR_SYMBOLS = {
    "psi1": {"expr": "i + 0.1*cay(z1)*cay(z2)", "im_lower_bound": 0.85, "sup_bound": 1.15},
    "psi2": {"expr": "2*i - 0.2*cay(z1)*cay(z2)", "im_lower_bound": 1.75, "sup_bound": 2.25},
}


@pytest.mark.parametrize(
    "name", ["cay_quarter", "constants_basic", "dilation_case", "separable_mix", "twovar"]
)
def test_build_memory_stays_below_one_dense_operator(tmp_path, name):
    # at 32 nodes per axis one n^2 x n^2 complex matrix is 16.8 MB; operator.csv
    # and the cross-check read the operator's Kronecker pairs a block of rows
    # at a time.  The grids are the benchmark's: each catalog config's own,
    # and the two-variable map's 256 boundary nodes
    n = 32
    base = "cay_quarter" if name == "twovar" else name
    raw = json.loads((CONFIG_DIR / f"{base}.json").read_text())
    raw["grids"]["frequency_nodes"] = n
    if name == "twovar":
        raw.update(name=name, symbols=TWOVAR_SYMBOLS)
        raw["grids"]["boundary_nodes"] = 256
    cfg = RunConfig.from_dict(raw)
    out = tmp_path / "out"
    out.mkdir()
    tracemalloc.start()
    try:
        assert cmd_build(cfg, True, out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n**4 * 16
    with open(out / "operator.csv") as f:
        head = [next(f) for _ in range(2)]
        lines = 2 + sum(1 for _ in f)
    assert head[1] == f"# shape {n * n} {n * n}\n"
    assert lines == 3 + n**4


@pytest.mark.parametrize("command", ["build", "spectrum", "verify"])
def test_capped_order_fails_certification(tmp_path, command):
    cfg = _config(tmp_path, plan={"n1": 2, "n2": 2, "remainder_tol": 1e-9})
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    if command == "build":
        # artifacts still written for post-mortem
        assert (out / "plan_certificate.json").exists()


def test_truncation_cap_reports_tol_not_met(tmp_path):
    # delta is so close to 1 that the order hits its cap of 60 far from tol;
    # without remainder_tol the build still succeeds, and says so
    slow = {"expr": "1+0.5*i", "im_lower_bound": 0.4, "sup_bound": 1.2,
            "class": "constant"}
    cfg = _config(tmp_path, symbols={"psi1": slow, "psi2": slow})
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out),
                 "--no-crosscheck"]) == 0
    cert = json.loads((out / "plan_certificate.json").read_text())
    assert cert["n1"] == cert["n2"] == 60
    assert cert["remainder_bound"] > 1e-8
    assert cert["tol_met"] is False


@pytest.mark.parametrize("tol, met", [(1e-8, True), (1e-14, False)])
def test_two_variable_certificate_counts_the_compression_tail(tmp_path, tol, met):
    # a two-variable series is stored as recompressed Kronecker pairs, within
    # compression_tail (about 1.3e-12 here) of the truncated sum: at orders
    # 60 the remainder is far below either tol, so the tail decides tol_met
    cfg = _config(tmp_path, symbols=TWOVAR_SYMBOLS, plan={"tol": tol, "n1": 60, "n2": 60})
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out), "--no-crosscheck"]) == 0
    cert = json.loads((out / "plan_certificate.json").read_text())
    assert cert["remainder_bound"] < 1e-14 < cert["compression_tail"] < 1e-8
    assert cert["tol_met"] is met


def test_uncertifiable_plan_exits_3_for_every_subcommand(tmp_path, capsys):
    raw = json.loads((CONFIG_DIR / "constants_basic.json").read_text())
    raw["plan"] = {"alpha": 0.05}  # delta = 39
    raw["spectra"]["resolution"] = [32, 32]
    path = tmp_path / "constants_basic.json"
    path.write_text(json.dumps(raw))
    for command in ("build", "spectrum", "verify"):
        out = tmp_path / command
        rc = main([command, "--config", str(path), "--out", str(out),
                   "--sizes", "8,12,16"])
        assert rc == 3, command
        assert "certification failure" in capsys.readouterr().err
    assert (tmp_path / "build" / "build_report.json").exists()


# ---------------------------------------------------------------------------
# spectrum / verify


def test_spectrum_outputs(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "sigma_min.csv").exists()
    assert (out / "level_0.05.csv").exists()
    report = json.loads((out / "spectrum_report.json").read_text())
    assert report["level_counts"][0] > 0


@pytest.mark.parametrize("name", ["constants_basic", "cay_quarter"])
def test_spectrum_report_counts_lanczos_work(tmp_path, name):
    # constants_basic is diagonal, so its sigma_min is an exact distance and
    # runs no Lanczos step; cay_quarter's is not
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grids"]["frequency_nodes"] = 8
    raw.setdefault("spectra", {})["resolution"] = [32, 32]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "spectrum_report.json").read_text())
    if name == "constants_basic":
        assert report["lanczos_max_steps"] == report["lanczos_cap_hits"] == 0
    else:
        assert report["lanczos_max_steps"] > 0
        assert report["lanczos_cap_hits"] >= 0


def test_verify_constants_pass(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verdict"]["verdict"] == "PASS"
    assert report["verdict"]["distance"] <= report["verdict"]["tol"]
    assert "PASS" in capsys.readouterr().out
    svg = (out / "overlay.svg").read_text()
    assert "unit-circle-guide" in svg


def test_verify_region_mismatch_fails(tmp_path):
    # lambda window far from the unit disc: surrogate comes back empty and
    # the verdict must be FAIL with exit 1, not a crash
    cfg = _config(tmp_path, spectra={
        "region": [4.0, 6.0, 4.0, 6.0], "resolution": [33, 33],
        "eps": [0.05], "sizes": [12, 16, 20],
    })
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verdict"]["verdict"] == "FAIL"


def test_seed_flag_overrides_config(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    rc = main(["predict", "--config", str(cfg), "--out", str(out),
               "--seed", "42"])
    assert rc == 0
    report = json.loads((out / "predict_report.json").read_text())
    assert report["seed"] == 42


def test_config_hash_covers_overrides(tmp_path):
    cfg = _config(tmp_path)
    runs = iter(range(100))

    def digest(*flags):
        out = tmp_path / f"run{next(runs)}"
        assert main(["predict", "--config", str(cfg), "--out", str(out), *flags]) == 0
        return json.loads((out / "predict_report.json").read_text())["config_sha256"]

    base = digest()
    eps = digest("--eps", "0.1")
    sizes = digest("--sizes", "12,16,24")
    assert len({base, eps, sizes}) == 3
    assert digest("--eps", "0.1") == eps
    assert digest() == base
    # the config already asks for eps 0.05: the run is the same
    assert digest("--eps", "0.05") == base


# ---------------------------------------------------------------------------
# demo


def test_demo_produces_reports(tmp_path):
    out = tmp_path / "demo"
    rc = main(["demo", "--out", str(out)])
    assert rc == 0
    reports = list(Path(out).glob("*/*_report.json")) + list(
        Path(out).glob("*/plan_certificate.json")
    )
    assert len(reports) >= 4
    assert (out / "constants_basic" / "verify_report.json").exists()
    assert (out / "separable_mix" / "spiral.svg").exists()
