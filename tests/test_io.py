"""Field dumps: rejected malformations.  Series tables: exact bytes.  SVG
heatmaps: byte-stable output, non-finite fields, well-formed titles, and a
file writer that streams the same bytes."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import fields
from xml.etree import ElementTree

import numpy as np
import pytest

import chemohapto.io
from chemohapto import Grid
from chemohapto.diagnostics import DiagnosticsRecord
from chemohapto.io import (_colors, field_svg, read_field, write_field, write_field_svg,
                           write_series)


@pytest.mark.parametrize("mangle, grid, message", [
    (lambda b: b[:20], None, r"truncated header \(20 bytes\)"),
    (lambda b: b"CHFIELD2" + b[8:], None, r"bad magic b'CHFIELD2'"),
    (lambda b: b[:-8], None, r"payload is 760 bytes, expected 768 for a 12x8 field"),
    (lambda b: b, Grid(8, 12), r"field is 12x8, grid is 8x12"),
    (lambda b: b, Grid(12, 8, 1.0, 2.0),
     r"domain \(1\.0, 1\.5\) does not match grid \(1\.0, 2\.0\)"),
], ids=["truncated-header", "bad-magic", "payload-size", "shape", "domain"])
def test_read_field_rejects_malformed_dumps(tmp_path, mangle, grid, message):
    g = Grid(12, 8, 1.0, 1.5)
    path = tmp_path / "f.field"
    write_field(str(path), g, np.arange(96.0).reshape(g.shape))
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        read_field(str(path), grid)


def test_series_csv_bytes_keep_special_values(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1]
    names = [f.name for f in fields(DiagnosticsRecord)]
    rows = [[specials[(i + j) % len(specials)] for j in range(len(names))]
            for i in range(len(specials))]
    path = tmp_path / "series.csv"
    write_series(str(path), [DiagnosticsRecord(*row) for row in rows])
    expected = ",".join(names) + "\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


def _svg_cases():
    g = Grid(40, 24, 2.0, 1.2)
    X, Y = g.mesh()
    yield "smooth", g, X * (2.0 - X) + 0.5 * Y * Y, "smooth"
    g = Grid(16, 12)
    yield "random", g, np.random.default_rng(7).random(g.shape) * 3.0 - 1.0, "u(x, t=0.5)"
    g = Grid(8, 8)
    yield "constant", g, np.full(g.shape, 2.5), ""
    # positions 0.125 .. 0.875 put colour components on exact .5 ties;
    # 0.3125 and 0.8125 give ties that round down to an even integer
    g = Grid(8, 4)
    ties = np.array([0.0, 0.125, 0.3125, 0.375, 0.625, 0.8125, 0.875, 1.0] * 4)
    yield "ties", g, ties.reshape(8, 4), "ties"
    # finer than 128 cells per axis: block-averaged, the ragged last column of
    # blocks (2 of 3 cells wide) over the cells it has
    g = Grid(300, 260)
    yield "blocked", g, np.random.default_rng(11).random(g.shape), "w"


# sha256 of the UTF-8 output, recorded from the scalar per-cell colour map
# that the vectorized writer replaced
SVG_SHA256 = {
    "smooth": "382c7c15feff40c59f273384dc884da96d088f8d15954f2a66b69a9b62525756",
    "random": "67f24eb6be6be81df7522efdf3476f66e48225ead0a74e9bcca8a25ea20375d6",
    "constant": "514e58fd18c5035ccbf70f13539941641ef6c67e55e861103f81931f4fbfdfdd",
    "ties": "11370c35a7895a75fc3dcd3c647c3f5af8162589ec4e3ca984c9a8476ecc742f",
    # recorded when the ragged last blocks stopped being dropped
    "blocked": "5e526d7fc8aefdc8ff0a19e9fddac39e0f9c65df269b9d293e93ed36ab1cbd89",
}


@pytest.mark.parametrize("name,g,f,title", list(_svg_cases()),
                         ids=[c[0] for c in _svg_cases()])
def test_field_svg_bytes_are_stable(name, g, f, title):
    svg = field_svg(g, f, title)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == SVG_SHA256[name]


def test_field_svg_ties_round_half_to_even():
    g = Grid(4, 4)
    f = np.zeros(g.shape)
    f[0, 0], f[1, 0], f[2, 0] = 1.0, 0.125, 0.3125
    svg = field_svg(g, f)
    # 0.125: (63.5, 41.5, 111.5) -> (64, 42, 112); 0.3125: 52.5 -> 52
    assert 'fill="#402a70"' in svg and 'fill="#34628b"' in svg


def test_field_svg_paints_non_finite_cells():
    g = Grid(8, 8)
    rng = np.random.default_rng(3)
    f = rng.random(g.shape) + 1.0
    f[0, 0], f[7, 7] = 0.5, 3.0          # pin the finite range
    f_bad = f.copy()
    f_bad[2, 3], f_bad[5, 1] = np.nan, np.inf
    ref = field_svg(g, f).splitlines()
    got = field_svg(g, f_bad).splitlines()
    assert got[3].endswith("range [0.5, 3]; 2 non-finite cells in red</text>")
    changed = [i for i, (a, b) in enumerate(zip(ref, got)) if a != b]
    # the range line and exactly the two non-finite cells differ
    assert len(got) == len(ref) and len(changed) == 3
    assert all('fill="#ff0000"' in got[i] for i in changed[1:])

    everything_bad = field_svg(g, np.full(g.shape, -np.inf))
    assert "range [nan, nan]; 64 non-finite cells in red" in everything_bad
    assert everything_bad.count('fill="#ff0000"') == 64


def test_field_svg_title_with_markup_characters_is_well_formed():
    title = "u & v <test>"
    root = ElementTree.fromstring(field_svg(Grid(8, 8), np.ones((8, 8)), title=title))
    texts = root.findall("{http://www.w3.org/2000/svg}text")
    assert texts[0].text == title


def _fills(svg):
    # the fill of every drawn cell, in the order the writer draws them
    cells = re.findall(r'<rect x="[^"]*" y="[^"]*" [^>]*fill="#([0-9a-f]{6})"/>', svg)
    return [int(c, 16) for c in cells]


@pytest.mark.parametrize("shape", [(129, 129), (130, 257)])
def test_field_svg_averages_partial_trailing_blocks(shape):
    g = Grid(*shape)
    f = np.random.default_rng(5).random(g.shape)
    sx, sy = (-(-n // 128) for n in shape)
    # every block, a partial trailing one included, is the mean of its cells
    means = np.array([[f[i:i + sx, j:j + sy].mean() for j in range(0, shape[1], sy)]
                      for i in range(0, shape[0], sx)])
    lo, hi = means.min(), means.max()
    svg = field_svg(g, f)
    assert f"range [{lo:.6g}, {hi:.6g}]</text>" in svg
    assert _fills(svg) == _colors((means - lo) / (hi - lo)).ravel().tolist()

    # the cells outside whole blocks (the last row at 129^2, the last two
    # columns at 130x257) set the top of the range at 5.0, and a nan in the
    # last cell turns its block red
    f[shape[0] // sx * sx:, :] = 5.0
    f[:, shape[1] // sy * sy:] = 5.0
    f[-1, -1] = np.nan
    svg = field_svg(g, f)
    assert "range [" in svg and ", 5]; 1 non-finite cells in red</text>" in svg
    assert _fills(svg)[-1] == 0xFF0000 and svg.count('fill="#ff0000"') == 1


@pytest.mark.parametrize("shape", [(8, 5), (128, 128), (257, 130)],
                         ids=["small", "at-block-threshold", "blocked"])
def test_write_field_svg_streams_the_bytes_of_field_svg(tmp_path, shape):
    # below, at and above the 128-cell block threshold, with non-finite
    # cells and a title that needs escaping
    g = Grid(*shape)
    f = np.random.default_rng(sum(shape)).random(g.shape)
    f[0, 0], f[-1, -1], f[shape[0] // 2, 1] = np.nan, np.inf, -np.inf
    title = "u & v <t> (x, t=0.5)"
    path = tmp_path / "f.svg"
    write_field_svg(str(path), g, f, title=title)
    assert path.read_bytes() == field_svg(g, f, title).encode()


class _MemoryAtWrite:
    """A text file that notes the traced memory in use at each write."""

    def __init__(self, fh):
        self.fh, self.most = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.most = max(self.most, tracemalloc.get_traced_memory()[0])
        self.fh.write(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def test_write_field_svg_never_holds_the_whole_document(tmp_path, monkeypatch):
    # a 256^2 field draws 128^2 cells, about 1.1 MiB of text; the writer
    # writes a column of cells at a time, so at no write does it hold a
    # quarter of that (about 0.15 MiB: the fills and one column), and its
    # traced peak is the colour map's and block averaging's arrays
    g = Grid(256, 256)
    X, Y = g.mesh()
    f = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.03)
    path = str(tmp_path / "f.svg")
    document = len(field_svg(g, f, "u"))
    write_field_svg(path, g, f, title="u")
    files = []

    def noting_open(*args, **kwargs):
        files.append(_MemoryAtWrite(open(*args, **kwargs)))
        return files[-1]

    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        write_field_svg(path, g, f, title="u")
        peak = tracemalloc.get_traced_memory()[1] - entry
        monkeypatch.setattr(chemohapto.io, "open", noting_open, raising=False)
        write_field_svg(path, g, f, title="u")
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20, peak
    assert files[0].most - entry < document / 4, (files[0].most - entry, document)


def _colors_three_channels(t):
    """_colors as it stood when it formed all three channels in one
    (cells x 3) array."""
    stops = chemohapto.io._STOPS
    pos = np.clip(t, 0.0, 1.0) * (len(stops) - 1)
    i = np.minimum(pos.astype(int), len(stops) - 2)
    frac = (pos - i)[..., None]
    rgb = np.rint(stops[i] * (1.0 - frac) + stops[i + 1] * frac).astype(int)
    return (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]


@pytest.mark.parametrize("t", [
    np.random.default_rng(21).random((128, 128)),
    np.random.default_rng(22).normal(0.5, 1.0, (7, 5)),      # outside [0, 1] too
    np.linspace(0.0, 1.0, 10001),                             # through every stop
], ids=["128x128", "7x5-unclipped", "ramp"])
def test_colors_one_channel_at_a_time_keep_the_bits(t):
    got, want = _colors(t), _colors_three_channels(t)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_heatmap_of_128_squared_cells_stays_under_a_mebibyte(tmp_path):
    # the largest heatmap that is drawn cell for cell: its colour map takes
    # a few cells-sized arrays, one channel at a time (0.90 MiB traced in
    # all), where a (cells x 3) map took 1.84 MiB
    g = Grid(128, 128)
    f = np.random.default_rng(4).random(g.shape)
    f[3, 5] = np.nan
    path = str(tmp_path / "f.svg")
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        write_field_svg(path, g, f, title="u")
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, peak
