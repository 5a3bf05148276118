"""Field-grid file format (.rsf).

Layout: one UTF-8 JSON header line terminated by '\\n', then the raw field
payload as little-endian 64-bit floats, interleaved per node as
(Re Fx, Im Fx, Re Fy, Im Fy, Re Fz, Im Fz), nodes ordered with the x index
fastest.  The header carries the space tag, per-axis counts, spacings and
origins, and the layout name.

The payload is a sequence of z-slabs of nx * ny nodes, and it is written
and read one z-slab at a time.  write_rsf and `field` share one slab
writer (_write_slabs), which removes the file if anything raises before
its last slab is written, so a failed write leaves no partial file.
read_rsf builds the whole FieldGrid; the report of the file,
moments.uncertainty_product(path), instead streams it (_file_stats): the
payload's z-slabs, read again for each pass, are the slab stream of the
one reducer, kspace._stream_stats, which reduces the file's own-space
density z-slab by z-slab and notes its nonzero planes in one read, and
takes each component or pair of real planes it transforms from one more,
phased into a buffer in the file's order as it is read, whose density is
reduced where it lies, in that order: neither the field nor a copy of a
density is ever made.  Either way the
header, the payload size (from the file size) and the Grid3D are checked
before anything the size of the payload is allocated (_read_header), and
every slab read is checked for a short read (_zslabs).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import RsfFormatError
from .kspace import FieldGrid, Grid3D, _stream_stats

__all__ = ["write_rsf", "read_rsf", "LAYOUT"]

LAYOUT = "interleaved-re-im-xyz-xfastest"
_HEADER_MAX = 1 << 16


def write_rsf(path, field: FieldGrid) -> None:
    nx, ny, nz = field.grid.counts
    slab = np.empty((ny, nx, 3), dtype="<c16")

    def slabs():
        for k in range(nz):
            # (nx, ny, 3) -> (ny, nx, 3): x runs fastest per node
            slab[...] = field.values[:, :, k].transpose(1, 0, 2)
            yield slab

    _write_slabs(path, field.space, field.grid, slabs())


def _write_slabs(path, space, grid: Grid3D, slabs) -> None:
    """Write the .rsf file of a field on grid in `space` whose payload is
    the z-slabs `slabs` yields in z order, each a C-contiguous (ny, nx, 3)
    '<c16' array.  If anything raises once the file is open, the file is
    removed and the exception passes on."""
    header = {
        "space": space,
        "counts": list(grid.counts),
        "spacings": list(grid.spacings),
        "origins": list(grid.origins),
        "layout": LAYOUT,
    }
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            for slab in slabs:
                fh.write(slab)
    except BaseException:
        os.remove(path)
        raise


def read_rsf(path) -> FieldGrid:
    with open(path, "rb") as fh:
        space, grid, start = _read_header(fh)
        vals = np.empty(grid.counts + (3,), dtype=np.complex128)
        for k, slab in enumerate(_zslabs(fh, start, grid.counts)):
            vals[:, :, k] = slab.transpose(1, 0, 2)
    return FieldGrid(vals, grid, space)


def _read_header(fh):
    """(space, grid, payload offset) of the open .rsf file fh, left at the
    start of its payload.  The header, the payload size (from the file
    size) and the Grid3D are checked here (RsfFormatError), before
    anything the size of the payload is allocated."""
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
    return space, grid, len(header_line)


def _zslabs(fh, start, counts):
    """The z-slabs of the payload that starts at offset start of fh
    (_read_header), in z order, each read into one reused (ny, nx, 3)
    '<c16' buffer; RsfFormatError if the payload ends first (the file
    shrank after its size was checked)."""
    nx, ny, nz = counts
    fh.seek(start)
    slab = np.empty((ny, nx, 3), dtype="<c16")
    for _ in range(nz):
        if fh.readinto(slab) != slab.nbytes:
            raise RsfFormatError("payload ended early")
        yield slab


def _file_stats(path):
    """(k-space stats, position stats) (kspace._DensityStats) of the .rsf
    file at path, those of read_rsf(path) to the bit: its payload's
    z-slabs are the slab stream of kspace._stream_stats in order "F", each
    pass one read of the payload (_zslabs), and the own-space pass holds
    no density of the grid.  The default packet at t = 0
    (Fz = 0, Fx and Fy real) takes two reads and one FFT, a complex field
    four reads and three FFTs, and a wavevector file's probe one read more,
    cut short at the first slab of a complex field."""
    with open(path, "rb") as fh:
        space, grid, start = _read_header(fh)
        return _stream_stats(lambda comps: _zslabs(fh, start, grid.counts),
                             grid, space, order="F")


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
