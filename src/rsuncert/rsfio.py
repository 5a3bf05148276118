"""Field-grid file format (.rsf).

Layout: one UTF-8 JSON header line terminated by '\\n', then the raw field
payload as little-endian 64-bit floats, interleaved per node as
(Re Fx, Im Fx, Re Fy, Im Fy, Re Fz, Im Fz), nodes ordered with the x index
fastest.  The header carries the space tag, per-axis counts, spacings and
origins, and the layout name.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import RsfFormatError
from .kspace import FieldGrid, Grid3D

__all__ = ["write_rsf", "read_rsf", "LAYOUT"]

LAYOUT = "interleaved-re-im-xyz-xfastest"


def write_rsf(path, field: FieldGrid) -> None:
    header = {
        "space": field.space,
        "counts": list(field.grid.counts),
        "spacings": list(field.grid.spacings),
        "origins": list(field.grid.origins),
        "layout": LAYOUT,
    }
    # (nx,ny,nz,3) -> (nz,ny,nx,3) so that flattening runs x fastest per node
    payload = np.ascontiguousarray(
        field.values.transpose(2, 1, 0, 3), dtype="<c16"
    )
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload.tobytes())


def read_rsf(path) -> FieldGrid:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RsfFormatError(f"bad .rsf header: {exc}") from exc
    try:
        space = header["space"]
        counts = tuple(header["counts"])
        spacings = tuple(float(d) for d in header["spacings"])
        origins = tuple(float(o) for o in header["origins"])
        layout = header["layout"]
    except (KeyError, TypeError, ValueError) as exc:
        raise RsfFormatError(f"incomplete .rsf header: {exc}") from exc
    if layout != LAYOUT:
        raise RsfFormatError(f"unsupported layout {layout!r}")
    if space not in ("position", "wavevector"):
        raise RsfFormatError(f"unknown space tag {space!r}")
    # checked before the payload size, which the counts determine
    if len(counts) != 3 or not all(
        isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in counts
    ):
        raise RsfFormatError(f"counts must be three positive integers, got {counts}")
    nx, ny, nz = counts
    expected = nx * ny * nz * 3 * 16
    if len(blob) != expected:
        raise RsfFormatError(
            f"payload size {len(blob)} != expected {expected} bytes"
        )
    vals = np.frombuffer(blob, dtype="<c16").reshape(nz, ny, nx, 3)
    vals = np.ascontiguousarray(vals.transpose(2, 1, 0, 3))
    try:
        grid = Grid3D(counts, spacings, origins)
        return FieldGrid(vals, grid, space)
    except ValueError as exc:
        raise RsfFormatError(str(exc)) from exc
