"""The vectorized formatter against ``format``, and every CLI output against
the per-value f-string writers it replaced."""

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpspec import cli, svg, textfmt
from qpspec.cli import CONFIG_DIR, main

SPECS = (".12g",)


def _reference(re, im, spec):
    return "".join(
        format(float(a), spec) + "," + format(float(b), spec) + "\n" for a, b in zip(re, im)
    ).encode()


def _assert_formats(values, spec):
    x = np.asarray(values, dtype=np.float64)
    got = textfmt.rows(x, x[::-1]).split(b"\n")
    want = _reference(x, x[::-1], spec).split(b"\n")
    assert got == want, [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w][:5]


EDGES = (
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
     1e270, -1e270, 1e-270, -1e-270, 1e300, -1.7976931348623157e308]
    + [10.0**k for k in range(-5, 23)]
    # the %g switch points: to fixed notation at 1e-4, to exponent at 1e12
    + [9.9999999999996e-5, 9.99999999999949e-5, 999999999999.4, 999999999999.5,
       999999999999.6, 1e12, -999999999999.5]
    # 13 significant digits ending in 5 (ties or near-ties of .12g)
    + [float(f"{m}5e{k}") for m in (100000000000, 123456789012, 999999999999)
       for k in (-20, -13, -7, -1, 0, 5)]
    + [0.125, 2.675, 0.005, 1.005, 239.995, -0.001, -0.005, 9999999.995, 1e7, 1e7 - 0.005]
    + [float(2**k) for k in range(0, 54)] + [2.0**53 - 1, 2.0**53 + 2, 123456789012345.0]
)


@pytest.mark.parametrize("spec", SPECS)
def test_edge_values_match_format(spec):
    _assert_formats(EDGES, spec)
    _assert_formats([-v for v in EDGES], spec)


# a chunk with at least half its lines zero lines (both values ±0) writes
# those from a table and formats only the others.  The lines here pair x
# with x[::-1], so of 64 lines 64, 62 and 50 are zero lines for 0, 1 and 7
# nonzero values (the table) and 16 for 32 and 33 (every line formatted).
# Random lists of up to 64 values almost never reach this rule.
@pytest.mark.parametrize("others", [0, 1, 7, 32, 33])
def test_mostly_zero_chunks_match_format(others):
    rng = np.random.default_rng(others)
    x = np.where(rng.random(64) < 0.5, 0.0, -0.0)
    pool = np.array([v for v in EDGES + [-v for v in EDGES] if v != 0])
    x[rng.choice(64, others, replace=False)] = rng.choice(pool, others)
    _assert_formats(x, ".12g")


def test_zero_chunks_match_format():
    _assert_formats([0.0] * 5, ".12g")
    _assert_formats([-0.0] * 5, ".12g")
    _assert_formats([-0.0, 0.0] * 3 + [float("nan"), 1e300], ".12g")
    # one CSV chunk of a sparse operator: mostly zeros of both signs
    x = np.zeros(16384)
    x[::3] = -0.0
    x[::17] = np.linspace(-3.0, 3.0, x[::17].size)
    _assert_formats(x, ".12g")


def _assert_lines(re, im, formatted, tmp_path, monkeypatch):
    """rows(re, im) and the CSV writer against the per-value references,
    and the number of lines that went through the digit pipeline."""
    re, im = np.asarray(re, dtype=np.float64), np.asarray(im, dtype=np.float64)
    seen = []
    lines = textfmt._lines

    def counted(a, b):
        seen.append(a.size)
        return lines(a, b)

    monkeypatch.setattr(textfmt, "_lines", counted)
    assert textfmt.rows(re, im) == _reference(re, im, ".12g")
    assert seen == [formatted]
    z = np.empty(re.size, complex)
    z.real, z.imag = re, im
    cli._write_csv(tmp_path / "new.csv", "abc", [z])
    _write_csv_reference(tmp_path / "ref.csv", "abc", [z])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("zero_lines", [32, 31])
def test_zero_line_threshold(zero_lines, tmp_path, monkeypatch):
    # 32 of 64 zero lines (exactly half) take the table, 31 do not
    rng = np.random.default_rng(zero_lines)
    re, im = rng.standard_normal((2, 64))
    at = rng.choice(64, zero_lines, replace=False)
    re[at], im[at] = np.where(rng.random((2, zero_lines)) < 0.5, 0.0, -0.0)
    _assert_lines(re, im, 32 if zero_lines == 32 else 64, tmp_path, monkeypatch)


def test_zero_lines_of_each_sign_pair(tmp_path, monkeypatch):
    re = [0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 2.5, -0.0]
    im = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 1e-5]
    assert textfmt.rows(re[:4], im[:4]) == b"0,0\n0,-0\n-0,0\n-0,-0\n"
    _assert_lines(re, im, 2, tmp_path, monkeypatch)


def test_all_zero_chunk(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    re, im = np.where(rng.random((2, 4099)) < 0.5, 0.0, -0.0)
    _assert_lines(re, im, 0, tmp_path, monkeypatch)


def test_zero_lines_next_to_fallback_values(tmp_path, monkeypatch):
    # ties of .12g, non-finite and out-of-range values go to format; zero
    # lines sit between them and at both ends of the chunk
    tie = float("1234567890125e-7")
    special = [(float("nan"), 0.0), (float("inf"), float("-inf")), (tie, 1e300),
               (-0.0, float("nan")), (-tie, -0.0), (1e300, -1e-300)]
    re, im = [-0.0, 0.0], [0.0, -0.0]
    for a, b in special:
        re += [a, 0.0, -0.0]
        im += [b, -0.0, 0.0]
    re += [0.0, -0.0]
    im += [0.0, 0.0]
    _assert_lines(re, im, len(special), tmp_path, monkeypatch)


@pytest.mark.parametrize("count, formatted", [(4, 2), (5, 5)])
def test_lines_with_one_zero_part_are_formatted(count, formatted, tmp_path, monkeypatch):
    # (0, 1), (1, 0) and (-0, -2) are not zero lines: with two zero lines,
    # 4 lines take the table and 5 do not
    re = [0.0, -0.0, 0.0, 1.0, -0.0][:count]
    im = [-0.0, 0.0, 1.0, 0.0, -2.0][:count]
    _assert_lines(re, im, formatted, tmp_path, monkeypatch)


def test_zero_lines_at_csv_chunk_ends(tmp_path):
    # a sparse block spanning three CSV chunks, zero lines at every chunk's
    # first and last line
    n = 2 * cli.CSV_CHUNK + 3
    z = np.zeros(n, complex)
    z[1::97] = np.linspace(-3.0, 3.0, z[1::97].size) * (1 - 2j)
    z[-2] = complex(float("nan"), 1e300)
    for at in (0, cli.CSV_CHUNK - 1, cli.CSV_CHUNK, 2 * cli.CSV_CHUNK - 1, n - 1):
        assert z[at] == 0
    z[cli.CSV_CHUNK] = complex(-0.0, -0.0)
    cli._write_csv(tmp_path / "new.csv", "abc", [z], (1, n))
    _write_csv_reference(tmp_path / "ref.csv", "abc", [z], (1, n))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_longest_fallback_texts_fit_a_slot():
    # the longest .12g texts have 19 bytes; a slot has _G_WIDTH = 40, and
    # its last byte stays 0 for the comma or newline of a line
    x = np.array([-1.23456789012e-308, -5e-324, -1.7976931348623157e308,
                  -2.2250738585072014e-308, float("-inf"), float("nan")])
    texts = [format(v, ".12g") for v in x.tolist()]
    assert max(len(t) for t in texts) == 19
    slots = textfmt._g12_digits(x)
    assert slots.shape == (x.size, textfmt._G_WIDTH) and not slots[:, -1].any()
    assert [bytes(row).rstrip(b"\0").decode() for row in slots] == texts
    _assert_formats(x, ".12g")


def _from_bits(bits):
    return [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_matches_format(spec, bits):
    _assert_formats(_from_bits(bits), spec)


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True),
              st.floats(-1e8, 1e8), st.floats(-1e-3, 1e-3),
              st.integers(-10**13, 10**13).map(lambda k: k / 1000 + 0.0005)),
    min_size=1, max_size=64))
def test_any_float_matches_format(spec, values):
    _assert_formats(values, spec)


def test_rows_joins_columns_and_literals():
    re = np.array([1.5, -0.0, 1e-7])
    im = np.array([0.0, 2.0, float("nan")])
    assert textfmt.rows(re, im) == b"1.5,0\n-0,2\n1e-07,nan\n"
    assert textfmt.rows(np.empty(0), np.empty(0)) == b""
    with pytest.raises(ValueError):
        textfmt.rows(np.zeros(3), np.zeros(5))


# ---------------------------------------------------------------------------
# the per-value writers the formatter replaced, as the byte reference


def _write_csv_reference(path, digest, blocks, shape=None):
    head = [f"# config {digest}"]
    if shape is not None:
        head.append(f"# shape {shape[0]} {shape[1]}")
    with open(path, "w") as f:
        f.write("\n".join(head + ["re,im"]) + "\n")
        for block in blocks:
            for z in np.asarray(block).reshape(-1).tolist():
                f.write(f"{z.real:.12g},{z.imag:.12g}\n")


def _xy_reference(z):
    return (
        (z.real + svg.PAD) / (2 * svg.PAD) * svg.VIEW,
        (svg.PAD - z.imag) / (2 * svg.PAD) * svg.VIEW,
    )


def _polyline_reference(points, color, width):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (_xy_reference(z) for z in points))
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{coords}"/>'


def _scatter_reference(points, color, r, shape):
    for z in points.tolist():
        x, y = _xy_reference(z)
        if shape == "circle":
            yield f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>'
        else:
            h = r
            yield (
                f'<rect x="{x - h:.2f}" y="{y - h:.2f}" width="{2 * h:.2f}" '
                f'height="{2 * h:.2f}" fill="{color}"/>'
            )


def _spiral_figure_reference(path, sweep, title="predicted spiral set"):
    els = [svg.unit_circle_guide(), _polyline_reference(sweep, "#1f6fb2", 1.0)]
    Path(path).write_text(svg._head(title) + "\n".join(els) + svg._TAIL)


def _overlay_figure_reference(path, level_sets, predicted,
                              title="predicted set over pseudospectrum levels"):
    shades = ("#c9dcef", "#9fc2e3", "#6ea3d4")
    with open(path, "w") as f:
        f.write(svg._head(title) + svg.unit_circle_guide())
        for k, (eps, pts) in enumerate(level_sets):
            f.write(f"\n<!-- level eps={eps:g}: {pts.size} points -->\n")
            f.write("".join(_scatter_reference(pts, shades[k % len(shades)], 2.2, "rect")))
        f.write("\n")
        f.write("".join(_scatter_reference(predicted, "#b2421f", 1.2, "circle")))
        f.write(svg._TAIL)


def _use_reference_writers(monkeypatch):
    monkeypatch.setattr(cli, "_write_csv", _write_csv_reference)
    monkeypatch.setattr(svg, "spiral_figure", _spiral_figure_reference)
    monkeypatch.setattr(svg, "overlay_figure", lambda path, eps, level, predicted:
                        _overlay_figure_reference(path, [(eps, level)], predicted))


def test_csv_writer_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(0)
    n = cli.CSV_CHUNK + 5
    blocks = [
        np.empty(0, complex),  # an empty surrogate
        rng.random(n),  # real values, written as "v,0"
        np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1e-20, 3)]),
        (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))) * 10.0 ** rng.integers(-9, 14, (3, n)),
    ]
    cli._write_csv(tmp_path / "new.csv", "abc", blocks, (3, n))
    _write_csv_reference(tmp_path / "ref.csv", "abc", blocks, (3, n))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("count", [1 << 18, 1 << 20])
def test_csv_writer_peak_does_not_grow_with_the_count(tmp_path, count):
    # CSV_CHUNK values are formatted per write, so the text of the whole
    # output is never held
    rng = np.random.default_rng(count)
    z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "new.csv", "abc", [z], (1, count))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
    _write_csv_reference(tmp_path / "ref.csv", "abc", [z], (1, count))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_figures_match_per_value_writers(tmp_path):
    rng = np.random.default_rng(1)
    n = svg.GLYPH_CHUNK + 3
    paths = [rng.standard_normal(n) + 1j * rng.standard_normal(n), np.empty(0, complex),
             np.array([0j, -0.005 + 0.005j, 1e9 + 0j])]
    # the coordinates themselves are bit-identical, not only their text
    x, y = svg._xy(paths[0])
    assert list(zip(x.tolist(), y.tolist())) == [_xy_reference(z) for z in paths[0].tolist()]
    for sweep in paths:
        svg.spiral_figure(tmp_path / "new.svg", sweep)
        _spiral_figure_reference(tmp_path / "ref.svg", sweep)
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()
    for eps, level in [(0.01, paths[0]), (0.02, paths[1])]:
        svg.overlay_figure(tmp_path / "new.svg", eps, level, paths[2])
        _overlay_figure_reference(tmp_path / "ref.svg", [(eps, level)], paths[2])
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


CATALOG = ("constants_basic", "cay_quarter", "dilation_case", "separable_mix")
COMMANDS = ("build", "predict", "spectrum", "verify")


@pytest.mark.parametrize("name", CATALOG)
def test_outputs_match_per_value_writers(tmp_path, monkeypatch, name):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grids"].update(frequency_nodes=12, boundary_nodes=160)
    raw["spectra"] = {"resolution": [32, 32], "sizes": [6, 8, 10]}
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(raw))

    def run_all(root):
        codes = []
        for command in COMMANDS:
            out = root / command
            codes.append(main([command, "--config", str(config), "--out", str(out)]))
        return codes

    codes = run_all(tmp_path / "new")
    with monkeypatch.context() as m:
        _use_reference_writers(m)
        assert run_all(tmp_path / "ref") == codes
    files = sorted(p.relative_to(tmp_path / "ref")
                   for p in (tmp_path / "ref").rglob("*") if p.suffix in (".csv", ".svg"))
    assert {f.suffix for f in files} == {".csv", ".svg"}
    assert files == sorted(p.relative_to(tmp_path / "new")
                           for p in (tmp_path / "new").rglob("*") if p.suffix in (".csv", ".svg"))
    for f in files:
        assert (tmp_path / "new" / f).read_bytes() == (tmp_path / "ref" / f).read_bytes(), f


def _slow_symbol_config(tmp_path):
    # cay_quarter's config with a psi1 whose values at +/- 1e8 disagree
    raw = json.loads((CONFIG_DIR / "cay_quarter.json").read_text())
    raw["symbols"]["psi1"] = {"expr": "2*i + 0.5*cay(z1/5000)",
                              "im_lower_bound": 1.5, "sup_bound": 2.5}
    config = tmp_path / "slow_symbol.json"
    config.write_text(json.dumps(raw))
    return config


def test_predict_rejects_symbol_with_two_limits_at_infinity(tmp_path, capsys):
    # the same config error, and exit 2, as build gives for that symbol
    config = _slow_symbol_config(tmp_path)
    for command in ("predict", "build"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 2
        assert "config error: symbol has different limits at +/- infinity" in (
            capsys.readouterr().err)
    assert not (tmp_path / "predict" / "spiral.csv").exists()
