"""Artifact persistence: CSV tables, binary field dumps, SVG heatmaps, reports.

Field dumps are flat binary with a fixed 32-byte header
(8-byte ASCII magic, nx and ny as uint32, Lx and Ly as float64, all
little-endian) followed by the row-major float64 payload.  Both CSV
tables, a run's series.csv and a sweep's sweep.csv, are UTF-8 with a
header row and 17-significant-digit floats, so that values round-trip
bit-exactly through text; write_table writes them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import fields
from typing import Iterable, Optional

import numpy as np

from .diagnostics import DiagnosticsRecord
from .grid import Grid

FIELD_MAGIC = b"CHFIELD1"
_HEADER = struct.Struct("<8sIIdd")   # 8 + 4 + 4 + 8 + 8 = 32 bytes


def write_field(path: str, grid: Grid, f: np.ndarray) -> None:
    """Dump one scalar field with the 32-byte geometry header."""
    grid.check_shape(f)
    data = np.ascontiguousarray(f, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FIELD_MAGIC, grid.nx, grid.ny, grid.Lx, grid.Ly))
        fh.write(data.tobytes(order="C"))


def read_field(path: str, grid: Optional[Grid] = None) -> np.ndarray:
    """Load a field dump; validates magic, payload size, and grid match."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"{path}: truncated header ({len(head)} bytes)")
        magic, nx, ny, lx, ly = _HEADER.unpack(head)
        if magic != FIELD_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        payload = fh.read()
    expected = nx * ny * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} "
            f"for a {nx}x{ny} field"
        )
    f = np.frombuffer(payload, dtype="<f8").reshape(nx, ny).copy()
    if grid is not None:
        if (nx, ny) != grid.shape:
            raise ValueError(
                f"{path}: field is {nx}x{ny}, grid is {grid.nx}x{grid.ny}"
            )
        if not (math.isclose(lx, grid.Lx) and math.isclose(ly, grid.Ly)):
            raise ValueError(
                f"{path}: domain ({lx}, {ly}) does not match grid "
                f"({grid.Lx}, {grid.Ly})"
            )
    return f


def write_table(path: str, header: list, rows: Iterable) -> None:
    """Write a CSV table: the header row, then one line per row with floats
    as %.17g and cells quoted where needed (an error text may hold commas)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        table = csv.writer(fh, lineterminator="\n")
        table.writerow(header)
        for row in rows:
            table.writerow("%.17g" % x if isinstance(x, float) else x for x in row)


def write_series(path: str, records: Iterable[DiagnosticsRecord]) -> None:
    """Write the diagnostics time series as a CSV table, one column per
    DiagnosticsRecord field in field order."""
    names = [f.name for f in fields(DiagnosticsRecord)]
    write_table(path, names, ([getattr(rec, n) for n in names] for rec in records))


def read_series(path: str) -> dict:
    """Read a series CSV back into {column: float array}."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = np.array(rows, dtype=float) if rows else np.zeros((0, len(header)))
    return {name: cols[:, i] for i, name in enumerate(header)}


def write_report(path: str, report: dict) -> None:
    """Serialize a report dict as JSON (non-finite floats use JSON Infinity)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, allow_nan=True)
        fh.write("\n")


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# SVG heatmaps

# five-stop blue-to-yellow map, interpolated componentwise
_STOPS = np.array([
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
], dtype=float)


# fill of cells whose value is nan or infinite; red is not on the map
_NONFINITE_RGB = 0xFF0000


def _colors(t: np.ndarray) -> np.ndarray:
    """Map positions t (clipped to [0, 1]) to packed 0xRRGGBB integers;
    the components round half to even."""
    frac = np.clip(t, 0.0, 1.0) * (len(_STOPS) - 1)
    i = frac.astype(int)
    np.minimum(i, len(_STOPS) - 2, out=i)
    frac -= i                       # the position between stops i and i + 1
    rest = 1.0 - frac
    # one channel at a time, so no (cells x 3) array is ever formed
    packed = np.zeros(i.shape, dtype=int)
    for lo, hi in zip(_STOPS[:-1].T, _STOPS[1:].T):
        chan = lo[i]
        chan *= rest
        upper = hi[i]
        upper *= frac
        chan += upper
        del upper                   # freed before the cast below allocates
        np.rint(chan, out=chan)
        packed <<= 8
        packed |= chan.astype(int)
    return packed


def _xml_text(s: str) -> str:
    # what xml.sax.saxutils.escape does, without the urllib and ssl imports
    # that module brings into every command
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_chunks(grid: Grid, f: np.ndarray, title: str):
    """The heatmap's text in pieces: the header lines, then one column of
    cells per piece, then the closing tag; every piece after the first
    starts with the newline that separates it from the one before."""
    grid.check_shape(f)
    g = np.asarray(f, dtype=float)
    nx, ny = g.shape
    sx = max(1, int(math.ceil(nx / 128)))
    sy = max(1, int(math.ceil(ny / 128)))
    if sx > 1 or sy > 1:
        # zero-padded to whole blocks: each block sum over its cell count
        pad = ((0, -nx % sx), (0, -ny % sy))
        blocks = (-(-nx // sx), sx, -(-ny // sy), sy)
        g = (np.pad(g, pad).reshape(blocks).sum(axis=(1, 3))
             / np.pad(np.ones(g.shape), pad).reshape(blocks).sum(axis=(1, 3)))
    gnx, gny = g.shape
    finite = np.isfinite(g)
    values = g[finite]
    bad = g.size - values.size
    lo, hi = math.nan, math.nan
    if values.size:
        lo, hi = float(np.min(values)), float(np.max(values))
    del values
    span = hi - lo if hi > lo else 1.0
    fills = _colors(np.where(finite, (g - lo) / span, 0.0))
    fills[~finite] = _NONFINITE_RGB
    note = f"; {bad} non-finite cells in red" if bad else ""
    del g, finite                   # the cells below need their fills only

    w_px, h_px = 560, 560
    pad, head = 10, 34
    cw = (w_px - 2 * pad) / gnx
    ch = (h_px - 2 * pad) / gny
    yield "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px + head}" viewBox="0 0 {w_px} {h_px + head}">',
        f'<rect width="{w_px}" height="{h_px + head}" fill="white"/>',
        f'<text x="{pad}" y="16" font-family="monospace" font-size="13">'
        f'{_xml_text(title)}</text>',
        f'<text x="{pad}" y="30" font-family="monospace" font-size="11" '
        f'fill="#555">range [{lo:.6g}, {hi:.6g}]{note}</text>',
    ])
    # SVG y grows downward; flip so j=0 sits at the bottom edge
    ys = [f'{head + pad + (gny - 1 - j) * ch:.2f}' for j in range(gny)]
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    for i in range(gnx):
        x = f'{pad + i * cw:.2f}'
        yield "".join(
            f'\n<rect x="{x}" y="{y}" {size} fill="#{c:06x}"/>'
            for y, c in zip(ys, fills[i].tolist())
        )
    yield "\n</svg>"


def field_svg(grid: Grid, f: np.ndarray, title: str = "") -> str:
    """Self-contained SVG heatmap of one field (inline rects, no deps).

    Fields finer than 128 cells per axis are block-averaged first to keep
    file sizes sane; a trailing block that the block size does not fill is
    the mean of the cells it has.  The data range is printed under the
    title, which is written as text: &, < and > are escaped.  The range
    covers the finite drawn cells only; non-finite ones are painted red and
    counted in the range line.
    """
    return "".join(_svg_chunks(grid, f, title))


def write_field_svg(path: str, grid: Grid, f: np.ndarray, title: str = "") -> None:
    """Write field_svg(grid, f, title) to path a column of cells at a time,
    so the whole document is never held in memory."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_svg_chunks(grid, f, title))


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
