"""Field-grid file format: round trips and malformed-input handling."""

import json
import tracemalloc

import numpy as np
import pytest

from rsuncert import FieldGrid, Grid3D, RsfFormatError, read_rsf, uncertainty_product, write_rsf
from rsuncert.cli import main
from rsuncert.kspace import _add_density
from conftest import spy_densities


def sample_field(rng, n=8):
    grid = Grid3D.centered(n, 5.0)
    vals = rng.normal(size=(n, n, n, 3)) + 1j * rng.normal(size=(n, n, n, 3))
    return FieldGrid(vals, grid, "position")


def test_round_trip_bit_exact(tmp_path, rng):
    field = sample_field(rng)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    back = read_rsf(path)
    assert np.array_equal(back.values, field.values)
    assert back.grid == field.grid
    assert back.space == field.space
    # rewrite reproduces identical bytes
    path2 = tmp_path / "g.rsf"
    write_rsf(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_payload_layout(tmp_path, rng):
    # x index fastest, 6 floats per node: Re/Im interleaved by component
    field = sample_field(rng, n=2)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    blob = path.read_bytes().split(b"\n", 1)[1]
    floats = np.frombuffer(blob, dtype="<f8")
    v000 = field.values[0, 0, 0]
    v100 = field.values[1, 0, 0]
    want_first_12 = []
    for v in (v000, v100):
        for comp in range(3):
            want_first_12 += [v[comp].real, v[comp].imag]
    assert np.array_equal(floats[:12], want_first_12)


def test_header_is_json_line(tmp_path, rng):
    field = sample_field(rng)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    header = path.read_bytes().split(b"\n", 1)[0]
    d = json.loads(header.decode("utf-8"))
    assert d["space"] == "position"
    assert d["counts"] == [8, 8, 8]
    assert d["layout"] == "interleaved-re-im-xyz-xfastest"


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.rsf"
    path.write_bytes(b"not json at all\n" + b"\x00" * 64)
    with pytest.raises(RsfFormatError):
        read_rsf(path)


def test_missing_keys_rejected(tmp_path):
    path = tmp_path / "bad.rsf"
    path.write_bytes(json.dumps({"space": "position"}).encode() + b"\n")
    with pytest.raises(RsfFormatError):
        read_rsf(path)


def test_size_mismatch_rejected(tmp_path, rng):
    field = sample_field(rng)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(RsfFormatError):
        read_rsf(path)


def test_unknown_layout_rejected(tmp_path, rng):
    field = sample_field(rng, n=2)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    head, blob = path.read_bytes().split(b"\n", 1)
    d = json.loads(head)
    d["layout"] = "something-else"
    path.write_bytes(json.dumps(d).encode() + b"\n" + blob)
    with pytest.raises(RsfFormatError):
        read_rsf(path)


@pytest.mark.parametrize("key, index", [("spacings", 1), ("origins", 2)])
def test_nonfinite_header_field_is_input_error(tmp_path, rng, capsys, key, index):
    # a non-finite header field is an input error (exit 2), not a
    # degenerate field (exit 3)
    field = sample_field(rng, n=4)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    head, blob = path.read_bytes().split(b"\n", 1)
    d = json.loads(head)
    d[key][index] = float("nan")
    path.write_bytes(json.dumps(d).encode() + b"\n" + blob)
    with pytest.raises(RsfFormatError):
        read_rsf(path)
    assert main(["verify-bound", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert len(err.strip().splitlines()) == 1


def test_nonpositive_counts_are_input_error(tmp_path, rng, capsys):
    # counts [-4, -4, 4] give the same payload size as [4, 4, 4]; they must
    # be rejected before the payload is reshaped
    field = sample_field(rng, n=4)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    head, blob = path.read_bytes().split(b"\n", 1)
    d = json.loads(head)
    d["counts"] = [-4, -4, 4]
    path.write_bytes(json.dumps(d).encode() + b"\n" + blob)
    with pytest.raises(RsfFormatError, match="positive integers"):
        read_rsf(path)
    assert main(["verify-bound", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key, values", [("spacings", [0.5, 0.5]),
                                         ("origins", [0.0, 0.0, 0.0, 0.0])])
def test_header_arity_is_input_error(tmp_path, rng, capsys, key, values):
    # a header with other than three spacings or origins is an input error
    # (exit 2), never exit 1 ("bound violated") from a later IndexError
    field = sample_field(rng, n=4)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    head, blob = path.read_bytes().split(b"\n", 1)
    d = json.loads(head)
    d[key] = values
    path.write_bytes(json.dumps(d).encode() + b"\n" + blob)
    with pytest.raises(RsfFormatError, match="exactly 3"):
        read_rsf(path)
    assert main(["verify-bound", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_slab_payload_is_the_transposed_field(tmp_path, rng):
    # non-cubic counts, so a swapped axis cannot go unnoticed
    grid = Grid3D((3, 4, 5), (0.5, 0.25, 0.2), (-1.0, 0.0, 2.0))
    vals = rng.normal(size=(3, 4, 5, 3)) + 1j * rng.normal(size=(3, 4, 5, 3))
    field = FieldGrid(vals, grid, "wavevector")
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    blob = path.read_bytes().split(b"\n", 1)[1]
    assert blob == np.ascontiguousarray(vals.transpose(2, 1, 0, 3), "<c16").tobytes()
    back = read_rsf(path)
    assert np.array_equal(back.values, field.values) and back.grid == grid


def test_one_read_density_is_the_component_sum(tmp_path, rng, monkeypatch):
    # the own-space density a file report takes from one read of the
    # payload is the three components' densities added in order, node by
    # node to the bit (a report's sums can hide a reordered add), on
    # non-cubic counts
    grid = Grid3D((6, 7, 5), (0.5, 0.25, 0.2), (-1.0, 0.0, 2.0))
    vals = rng.normal(size=(6, 7, 5, 3)) + 1j * rng.normal(size=(6, 7, 5, 3))
    path = tmp_path / "f.rsf"
    write_rsf(path, FieldGrid(vals, grid, "position"))
    want = np.zeros(grid.counts)
    for c in range(3):
        _add_density(want, vals[..., c])
    got = spy_densities(monkeypatch)
    uncertainty_product(path)
    assert len(got) == 2  # position space first: the file's own density
    assert got[0].flags.c_contiguous and np.array_equal(got[0], want)


@pytest.mark.parametrize("delta", [-16, 16])
def test_payload_one_value_off_rejected(tmp_path, rng, delta):
    field = sample_field(rng, n=4)
    path = tmp_path / "f.rsf"
    write_rsf(path, field)
    data = path.read_bytes()
    path.write_bytes(data[:delta] if delta < 0 else data + b"\0" * delta)
    with pytest.raises(RsfFormatError, match="payload size"):
        read_rsf(path)


def test_huge_counts_rejected_before_allocating(tmp_path):
    # 4096^3 nodes would need 3.3 TB; the size check comes from the file
    # size, before any array is made
    head = {"space": "position", "counts": [4096, 4096, 4096],
            "spacings": [0.1, 0.1, 0.1], "origins": [0.0, 0.0, 0.0],
            "layout": "interleaved-re-im-xyz-xfastest"}
    path = tmp_path / "huge.rsf"
    path.write_bytes(json.dumps(head).encode() + b"\n" + b"\0" * 48)
    tracemalloc.start()
    try:
        with pytest.raises(RsfFormatError, match="payload size"):
            read_rsf(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
