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
file's own-space density in one read of the payload (_read_density), then
one component at a time, in the file's order, into a buffer of its own
(_read_component), so it never holds the field.  Either way the header,
the payload size (from the file size) and the Grid3D are checked before
anything the size of the payload is allocated (_read_header), and every
slab read is checked for a short read.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import RsfFormatError
from .kspace import FieldGrid, Grid3D, _add_node_density, _stream_stats

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
        space, grid, _ = _read_header(fh)
        nx, ny, nz = grid.counts
        vals = np.empty(grid.counts + (3,), dtype=np.complex128)
        slab = np.empty((ny, nx, 3), dtype="<c16")
        for k in range(nz):
            _read_slab(fh, slab)
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


def _read_slab(fh, slab):
    """Fill slab from fh; RsfFormatError if the payload ends first (the
    file shrank after its size was checked)."""
    if fh.readinto(slab) != slab.nbytes:
        raise RsfFormatError("payload ended early")


def _read_component(fh, start, comp, out):
    """Fill out, an (nx, ny, nz) array in Fortran order (so its memory is
    in the file's order, x fastest), with component comp of the payload
    that starts at offset start of fh (_read_header), one z-slab at a
    time; return out."""
    nx, ny, _ = out.shape
    fh.seek(start)
    slab = np.empty((ny, nx, 3), dtype="<c16")
    for ol in out.T:  # z-slab l of out, (ny, nx)
        _read_slab(fh, slab)
        ol[...] = slab[..., comp]
    return out


def _read_density(fh, start, counts):
    """The field's density |F|^2 on its grid, an (nx, ny, nz) array in
    Fortran order, from one read of the payload that starts at offset
    start of fh: each z-slab's three components' re^2 and im^2 are added
    in component order (kspace._add_node_density), the per-node sums of
    kspace._add_density over the components of _read_component, with no
    component buffer."""
    nx, ny, _ = counts
    d = np.zeros(counts, order="F")
    fh.seek(start)
    slab = np.empty((ny, nx, 3), dtype="<c16")
    for dl in d.T:  # z-slab l of d, (ny, nx)
        _read_slab(fh, slab)
        _add_node_density(dl, slab)
    return d


def _file_stats(path):
    """(k-space stats, position stats) (kspace._DensityStats) of the .rsf
    file at path, those of read_rsf(path) to the bit, from four reads of
    the payload (kspace._stream_stats with order "F")."""
    with open(path, "rb") as fh:
        space, grid, start = _read_header(fh)
        return _stream_stats(lambda buf: (_read_component(fh, start, c, buf) for c in range(3)),
                             grid, space, order="F",
                             source_density=lambda: _read_density(fh, start, grid.counts))


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
