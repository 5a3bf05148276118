"""Field-grid file format (.rsf).

Layout: one UTF-8 JSON header line terminated by '\\n', then the raw field
payload as little-endian 64-bit floats, interleaved per node as
(Re Fx, Im Fx, Re Fy, Im Fy, Re Fz, Im Fz), nodes ordered with the x index
fastest.  The header carries the space tag, per-axis counts, spacings and
origins, and the layout name.

The payload is written and read one z-slab (nx * ny nodes) at a time, so
no transposed copy of the field is made, and its size is checked against
the header from the file size before anything is allocated.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import RsfFormatError
from .kspace import FieldGrid, Grid3D

__all__ = ["write_rsf", "read_rsf", "LAYOUT"]

LAYOUT = "interleaved-re-im-xyz-xfastest"
_HEADER_MAX = 1 << 16


def write_rsf(path, field: FieldGrid) -> None:
    header = {
        "space": field.space,
        "counts": list(field.grid.counts),
        "spacings": list(field.grid.spacings),
        "origins": list(field.grid.origins),
        "layout": LAYOUT,
    }
    nx, ny, nz = field.grid.counts
    slab = np.empty((ny, nx, 3), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for k in range(nz):
            # (nx, ny, 3) -> (ny, nx, 3): x runs fastest per node
            slab[...] = field.values[:, :, k].transpose(1, 0, 2)
            fh.write(slab)


def read_rsf(path) -> FieldGrid:
    with open(path, "rb") as fh:
        # a header is a few hundred bytes; the cap keeps a file without a
        # newline from being read whole
        header_line = fh.readline(_HEADER_MAX)
        space, counts, spacings, origins = _parse_header(header_line)
        nx, ny, nz = counts
        expected = nx * ny * nz * 3 * 16
        size = os.fstat(fh.fileno()).st_size - len(header_line)
        if size != expected:
            raise RsfFormatError(
                f"payload size {size} != expected {expected} bytes"
            )
        try:
            grid = Grid3D(counts, spacings, origins)
        except ValueError as exc:
            raise RsfFormatError(str(exc)) from exc
        vals = np.empty(counts + (3,), dtype=np.complex128)
        slab = np.empty((ny, nx, 3), dtype="<c16")
        for k in range(nz):
            if fh.readinto(slab) != slab.nbytes:
                raise RsfFormatError("payload ended early")
            vals[:, :, k] = slab.transpose(1, 0, 2)
    return FieldGrid(vals, grid, space)


def _parse_header(header_line):
    """(space, counts, spacings, origins) of a header line, checked."""
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
    return space, counts, spacings, origins
