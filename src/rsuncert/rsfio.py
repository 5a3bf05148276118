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
file's own-space density and its nonzero planes in one read of the
payload (_read_density), then, in the file's order and into a buffer of
its own, each component the transform takes whole or each pair of real
planes it takes in one FFT (_read_planes), so it never holds the field.
Either way the header, the payload size (from the file size) and the
Grid3D are checked before anything the size of the payload is allocated
(_read_header), and every slab read is checked for a short read
(_zslabs).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import RsfFormatError
from .kspace import (
    _COMPONENTS,
    FieldGrid,
    Grid3D,
    _add_node_density,
    _nonzero_planes,
    _note_planes,
    _stream_stats,
)

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


def _read_planes(fh, start, a, b, out):
    """Fill out, an (nx, ny, nz) array in Fortran order (so its memory is
    in the file's order, x fastest), with plane a + i plane b of the
    payload that starts at offset start of fh (plane 2c + p: the real,
    p = 0, or imaginary, p = 1, part of component c), in one read; return
    out.  Component c, the pair (2c, 2c + 1), is copied whole."""
    whole = (a, b) in _COMPONENTS
    for ol, slab in zip(out.T, _zslabs(fh, start, out.shape)):  # z-slab l of out, (ny, nx)
        if whole:
            ol[...] = slab[..., a // 2]
        else:
            planes = slab.view("<f8")
            ol.real = planes[..., a]
            ol.imag = planes[..., b]
    return out


def _read_density(fh, start, counts):
    """(density, nonzero planes) of the field in the payload that starts
    at offset start of fh, from one read: its density |F|^2 on its grid,
    an (nx, ny, nz) array in Fortran order, each z-slab's three
    components' re^2 and im^2 added in component order
    (kspace._add_node_density, the per-node sums of kspace._add_density
    over its components, with no component buffer), and which of its six
    real planes hold a nonzero value, noted as each slab is added
    (kspace._note_planes)."""
    d = np.zeros(counts, order="F")
    nonzero = np.zeros(6, dtype=bool)
    for dl, slab in zip(d.T, _zslabs(fh, start, counts)):  # z-slab l of d, (ny, nx)
        _add_node_density(dl, slab)
        _note_planes(nonzero, slab)
    return d, nonzero


def _file_stats(path):
    """(k-space stats, position stats) (kspace._DensityStats) of the .rsf
    file at path, those of read_rsf(path) to the bit (kspace._stream_stats
    with order "F"): its own-space density and nonzero planes from one
    read of the payload (_read_density), and one read per pair of planes
    the other space transforms (kspace._transform_plan).  A position
    file's density pass, which runs first, notes its nonzero planes; a
    wavevector file's are probed first, z-slab by z-slab, until every plane
    has shown a nonzero value (one slab for a complex field).  The default
    packet at t = 0 (Fz = 0, Fx and Fy real) takes two reads and one FFT,
    a complex field four reads and three FFTs."""
    with open(path, "rb") as fh:
        space, grid, start = _read_header(fh)
        noted = []

        def density():
            d, nonzero = _read_density(fh, start, grid.counts)
            noted.append(nonzero)
            return d

        def nonzero():
            return noted[0] if noted else _nonzero_planes(_zslabs(fh, start, grid.counts))

        return _stream_stats(lambda buf, pairs: (_read_planes(fh, start, a, b, buf)
                                                 for a, b in pairs),
                             grid, space, order="F", source_density=density, nonzero=nonzero)


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
