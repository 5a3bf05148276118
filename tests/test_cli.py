"""CLI contract: commands, exit codes, report formats."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rsuncert import (
    FieldGrid,
    Grid3D,
    SaturatingFieldSpec,
    analytic_eigenfunction,
    photon_wavefunctions,
    read_rsf,
    synthesize_kspace,
    uncertainty_product,
    fourier_to_position,
    write_rsf,
)
from rsuncert import analytic_fields, cli, kspace, rsfio
from rsuncert.analytic_fields import saturating_rs_field
from rsuncert.cli import main
from rsuncert.eigensolver import N_POINTS_MAX
from conftest import fourier_to_kspace, random_pair


def run(args):
    return main([str(a) for a in args])


class TestVerifyBound:
    def test_saturating_default(self, capsys):
        code = run(["verify-bound", "--saturating", "--a", "1.0"])
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert code == 0
        assert abs(rep["product"] - 2.5) < 1e-3
        assert abs(rep["saturation_ratio"] - 1.0) < 1e-3

    def test_saturating_grid_method(self, capsys):
        code = run(["verify-bound", "--saturating", "--method", "grid",
                    "--grid", 32, "--extent", 14])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(rep["product"] - 2.5) < 1e-3

    def test_random_field_input(self, tmp_path, rng, capsys):
        amps = random_pair(rng, allow_single=False)
        kgrid = Grid3D.centered(64, 30.0 * amps.k_scale).fourier_dual()
        field = fourier_to_position(synthesize_kspace(amps, kgrid))
        path = tmp_path / "random_field.rsf"
        write_rsf(path, field)
        code = run(["verify-bound", "--input", path])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["product"] >= 2.5 - 1e-6

    def test_zero_field_degenerate_exit3(self, tmp_path):
        grid = Grid3D.centered(16, 8.0)
        field = FieldGrid(np.zeros((16, 16, 16, 3), complex), grid, "position")
        path = tmp_path / "zeros.rsf"
        write_rsf(path, field)
        assert run(["verify-bound", "--input", path]) == 3

    def test_zero_wavevector_field_degenerate_exit3(self, tmp_path, capsys):
        # every plane is zero, so nothing is transformed: the zero density
        # of the position pass, which runs first, is still formed and reduced
        grid = Grid3D.centered(16, 8.0)
        path = tmp_path / "zeros.rsf"
        write_rsf(path, FieldGrid(np.zeros(grid.counts + (3,), complex), grid, "wavevector"))
        assert run(["verify-bound", "--input", path]) == 3
        assert capsys.readouterr().err == "error: degenerate field: variance: zero field norm\n"

    @pytest.mark.parametrize("space", ["position", "wavevector"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", [(5, 7, 9, 1), (0, 3, 15, 0), (0, 0, 0, 0)],
                             ids=["interior", "face", "corner"])
    def test_nonfinite_sample_exit2(self, tmp_path, capsys, space, bad, node):
        # a NaN or inf sample is an input error, not a field of zero norm:
        # in the interior, on a boundary face, and at the corner node, where
        # every input-side phase is exactly 1 (inf times its zero part is NaN)
        grid = Grid3D.centered(16, 8.0)
        vals = np.zeros(grid.counts + (3,), complex)
        x, y, z = grid.meshes()
        vals[..., 0] = np.exp(-(x * x + y * y + z * z))
        vals.real[node] = bad
        path = tmp_path / "bad.rsf"
        write_rsf(path, FieldGrid(vals, grid, space))
        code = run(["verify-bound", "--input", path])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("space", ["position", "wavevector"])
    def test_input_report_is_the_field_grid_report(self, tmp_path, rng, capsys, space):
        # read one plane pair at a time in the file's order, the report is
        # uncertainty_product's of the whole FieldGrid, to the bit, on an
        # off-centre grid with unequal counts and spacings: for a complex
        # field (a transform per component), and for a real and a purely
        # imaginary one (Fx and Fy in one transform, Fz in another)
        grid = Grid3D((32, 48, 40), (0.3, 0.25, 0.35), (-4.1, -6.3, -7.2))
        shape = grid.counts + (3,)
        path = tmp_path / "f.rsf"
        for vals in (rng.normal(size=shape) + 1j * rng.normal(size=shape),
                     rng.normal(size=shape), 1j * rng.normal(size=shape)):
            write_rsf(path, FieldGrid(vals, grid, space))
            want = uncertainty_product(read_rsf(path))
            got = uncertainty_product(path)
            assert got.to_dict() == want.to_dict()
            assert (got.boundary_ratio_r, got.boundary_ratio_k) == (
                want.boundary_ratio_r, want.boundary_ratio_k)
            run(["verify-bound", "--input", path])
            assert capsys.readouterr().out == want.to_json() + "\n"

    @staticmethod
    def spy_reads(monkeypatch):
        """The payload reads of a file report, in order, each as the number
        of z-slabs it took (one rsfio._zslabs call each)."""
        calls = []
        real = rsfio._zslabs

        def counted(*args):
            i = len(calls)
            calls.append(0)
            for slab in real(*args):
                calls[i] += 1
                yield slab

        monkeypatch.setattr(rsfio, "_zslabs", counted)
        return calls

    @pytest.mark.parametrize("space, want", [
        ("position", [8, 8, 8, 8]),
        ("wavevector", [1, 8, 8, 8, 8]),
    ])
    def test_input_reads_payload_four_times(self, tmp_path, monkeypatch, space, want):
        # a complex field: the file's own space takes its density from one
        # read, the other space one read per component, position space
        # reduced first; a wavevector file's probe for its zero planes stops
        # at its first slab
        grid = Grid3D.centered(8, 4.0)
        field = FieldGrid(np.full(grid.counts + (3,), 1 + 1j), grid, space)
        path = tmp_path / "f.rsf"
        write_rsf(path, field)
        calls = self.spy_reads(monkeypatch)
        uncertainty_product(path)
        assert calls == want

    @pytest.mark.parametrize("space, want", [
        ("position", [8, 8]),
        ("wavevector", [8, 8, 8]),
    ])
    def test_real_input_reads_payload_twice(self, tmp_path, monkeypatch, space, want):
        # a real field with Fz = 0, as the default packet at t = 0: its
        # density, then one read of Fx.re + i Fy.re (and the wavevector
        # file's probe, which scans the whole payload for the zero planes)
        grid = Grid3D.centered(8, 4.0)
        vals = np.zeros(grid.counts + (3,), complex)
        vals[..., 0], vals[..., 1] = 1.0, 2.0
        path = tmp_path / "f.rsf"
        write_rsf(path, FieldGrid(vals, grid, space))
        calls = self.spy_reads(monkeypatch)
        uncertainty_product(path)
        assert calls == want

    @pytest.mark.parametrize("field, ffts", [("default", 1), ("complex", 3)])
    def test_input_fft_count(self, tmp_path, monkeypatch, rng, field, ffts):
        # the default packet's two real planes take one 3-D FFT; a complex
        # field one per component
        path = tmp_path / "f.rsf"
        if field == "default":
            assert run(["field", "--grid", 32, "--out-field", path]) == 0
        else:
            grid = Grid3D.centered(32, 16.0)
            shape = grid.counts + (3,)
            write_rsf(path, FieldGrid(rng.normal(size=shape) + 1j * rng.normal(size=shape),
                                      grid, "position"))
        calls = []
        real_fftn = kspace.fftn
        monkeypatch.setattr(kspace, "fftn", lambda *a, **kw: calls.append(1)
                            or real_fftn(*a, **kw))
        assert run(["verify-bound", "--input", path]) == 0
        assert len(calls) == ffts

    def test_input_truncated_between_passes_exit2(self, tmp_path, capsys, monkeypatch):
        # each pass reads the file again: one that shrinks after its size
        # was checked is an input error, not a short or stale report.  A
        # position file's first pass is one read of its density, the
        # second, for the default packet, one read of Fx.re + i Fy.re
        path = tmp_path / "f.rsf"
        assert run(["field", "--grid", 16, "--out-field", path]) == 0
        calls = []

        def shrinking(*args):
            calls.append(len(calls))
            if len(calls) == 2:  # the first read of the second pass
                os.truncate(path, path.stat().st_size - 48)
            return real(*args)

        real = rsfio._zslabs
        monkeypatch.setattr(rsfio, "_zslabs", shrinking)
        code = run(["verify-bound", "--input", path])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: payload ended early\n"
        assert len(calls) == 2

    def test_malformed_input_exit2(self, tmp_path):
        path = tmp_path / "junk.rsf"
        path.write_bytes(b"garbage\nmore garbage")
        assert run(["verify-bound", "--input", path]) == 2

    def test_missing_input_exit2(self, tmp_path):
        assert run(["verify-bound", "--input", tmp_path / "nope.rsf"]) == 2

    @pytest.mark.parametrize("source", [
        ["--saturating"], ["--method", "grid"],
        {"saturating": True}, {"method": "grid"},
        ["--a", 3], ["--c-plus", 2], ["--c-minus", "1j"], ["--grid", 32], ["--extent", 5],
        {"c-plus": "2"},
    ], ids=["saturating", "method-grid", "config-saturating", "config-method-grid",
            "a", "c-plus", "c-minus", "grid", "extent", "config-c-plus"])
    def test_input_with_builtin_source_exit2(self, tmp_path, capsys, source):
        # each selects the built-in field, or sets one of its options away
        # from its default, and --input replaces that field: an input error
        # before the file is read, from a flag or from --config
        path = tmp_path / "f.rsf"
        assert run(["field", "--grid", 16, "--out-field", path]) == 0
        flag = "--" + next(iter(source)) if isinstance(source, dict) else source[0]
        if isinstance(source, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(source))
            source = ["--config", cfg]
        code = run(["verify-bound", "--input", path] + source)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ") and len(err.strip().splitlines()) == 1

    def test_input_with_builtin_defaults(self, tmp_path, capsys):
        # the built-in field's options at their defaults change nothing
        path = tmp_path / "f.rsf"
        assert run(["field", "--grid", 16, "--out-field", path]) == 0
        capsys.readouterr()
        base = ["verify-bound", "--input", path, "--tolerance", 1e9]
        assert run(base) == 0
        plain = capsys.readouterr().out
        assert run(base + ["--a", 1, "--grid", 64, "--extent", 16, "--method", "analytic"]) == 0
        assert capsys.readouterr().out == plain

    def test_out_file_and_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["verify-bound", "--saturating", "--format", "csv", "--out", out])
        assert code == 0
        head, row = out.read_text().strip().splitlines()
        assert head.split(",")[0] == "delta_r2"
        assert abs(float(row.split(",")[2]) - 2.5) < 1e-3

    def test_deterministic_output(self, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify-bound", "--saturating", "--out", o1])
        run(["verify-bound", "--saturating", "--out", o2])
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("args", [
        ["verify-bound", "--method", "grid", "--grid", 32],
        ["spread", "--grid", 32, "--extent", 24],
    ], ids=["verify-bound-grid", "spread"])
    def test_deterministic_streamed_output(self, tmp_path, args):
        # the streamed commands' FFTs and type-4 transforms run on every
        # core (workers=-1): their reports must not depend on the split
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", o1]) == 0
        assert run(args + ["--out", o2]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_bad_grid_size_exit2(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify-bound", "--saturating", "--grid", 37])
        assert exc.value.code == 2

    def test_truncated_box_exit5(self, capsys):
        # a box that cuts the packet off gives a product below 5/2 (2.4253
        # here): a truncation, not a violated bound
        code = run(["verify-bound", "--method", "grid", "--grid", 16, "--extent", 2])
        err = capsys.readouterr().err
        assert code == 5
        assert err.startswith("error: truncation:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("grid, extent, product", [
        (16, 24, 2.5494899040682166),
        (16, 64, 6.085396172533191),
        (32, 64, 3.991952002212246),
    ])
    def test_saturation_miss_on_truncated_box_exit5(self, capsys, grid, extent, product):
        # a box too coarse for its edge gives a product above 5/2 that
        # misses saturation: with both truncation warnings that is a
        # truncation, not a verdict, and the report is still written
        code = run(["verify-bound", "--method", "grid", "--grid", grid, "--extent", extent])
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert code == 5
        assert err.startswith("error: truncation:") and len(err.strip().splitlines()) == 1
        assert abs(rep["product"] - product) <= 1e-12 * product
        assert [w.split("-space")[0] for w in rep["warnings"]] == [
            "truncation: position", "truncation: wavevector"]

    def test_saturation_miss_without_truncation_is_a_verdict(self, capsys):
        # at --tolerance 0 a resolved box is held to exact saturation (the
        # 64^3 report reads 0.9999999999999997): no warning, so a miss is
        # exit 1, never exit 5
        code = run(["verify-bound", "--method", "grid", "--grid", 64, "--tolerance", 0])
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert rep["warnings"] == [] and err == ""
        exact = rep["product"] >= 2.5 and rep["saturation_ratio"] == 1.0
        assert code == (0 if exact else 1)


class TestSpectrum:
    def test_default_three_states(self, capsys):
        code = run(["spectrum"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert np.allclose(rep["eigenvalues"], [2.5, 4.5, 6.5], atol=1e-3)

    def test_under_resolved_exit4(self):
        assert run(["spectrum", "--n-points", 8]) == 4

    def test_n_points_cap_exit2(self, capsys, monkeypatch):
        # checked when the problem is built: the solve is never reached, so
        # nothing of the grid's size is allocated
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_radial reached past the n_points cap")

        monkeypatch.setattr(cli, "solve_radial", no_solve)
        assert run(["spectrum", "--n-points", N_POINTS_MAX + 1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_states_times_points_cap_exit2(self, capsys, monkeypatch):
        # the eigenvectors and eigenfunctions take 16 n_states n_points
        # bytes; past 10 N_POINTS_MAX the solver must never be reached, so a
        # stand-in that raises keeps any oversized case from allocating
        class Reached(Exception):
            pass

        def no_solve(*args, **kwargs):
            raise Reached

        monkeypatch.setattr("scipy.linalg.eigh_tridiagonal", no_solve)
        assert run(["spectrum", "--n-points", N_POINTS_MAX, "--n-states", 50000,
                    "--kappa-max", 500]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--n-states" in err and "--n-points" in err
        assert run(["spectrum", "--n-points", 200000, "--n-states", 51,
                    "--kappa-max", 500]) == 2
        # at the cap itself the solve is reached
        with pytest.raises(Reached):
            run(["spectrum", "--n-points", 200000, "--n-states", 50, "--kappa-max", 500])

    def test_no_states_exit2(self, capsys):
        assert run(["spectrum", "--n-states", 0]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_eigenfunction_dump_matches_analytic(self, tmp_path, capsys):
        csv_path = tmp_path / "eig.csv"
        code = run(["spectrum", "--dump-eigenfunctions", csv_path])
        assert code == 0
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        kap, g0 = rows[:, 0], rows[:, 1]
        ref = analytic_eigenfunction(0, kap)
        ref /= np.sqrt(np.trapezoid(kap ** 2 * ref ** 2, kap))
        if np.dot(ref, g0) < 0:
            g0 = -g0
        l2 = np.sqrt(np.trapezoid(kap ** 2 * (g0 - ref) ** 2, kap))
        assert l2 < 1e-3


class TestField:
    def test_axis_profile_transverse_zero(self, tmp_path):
        rsf = tmp_path / "field.rsf"
        prof = tmp_path / "profile.csv"
        code = run(["field", "--a", 1.0, "--grid", 16, "--out-field", rsf,
                    "--profile-axis", "z", "--profile-out", prof])
        assert code == 0
        rows = np.loadtxt(prof, delimiter=",", skiprows=1)
        # columns: z, ReFx, ImFx, ReFy, ImFy, ReFz, ImFz
        assert np.all(rows[:, 1:5] == 0.0)

    def test_written_file_round_trips(self, tmp_path):
        rsf = tmp_path / "field.rsf"
        assert run(["field", "--grid", 16, "--out-field", rsf]) == 0
        field = read_rsf(rsf)
        rsf2 = tmp_path / "copy.rsf"
        write_rsf(rsf2, field)
        assert rsf.read_bytes() == rsf2.read_bytes()

    def test_emitted_moments_reproduce_bound_values(self, tmp_path):
        rsf = tmp_path / "field.rsf"
        a = 1.0
        code = run(["field", "--a", a, "--grid", 64, "--extent", 16,
                    "--out-field", rsf])
        assert code == 0
        field = read_rsf(rsf)
        dr2 = uncertainty_product(field).delta_r2
        dk2 = uncertainty_product(fourier_to_kspace(field)).delta_k2
        assert abs(dr2 - 2.5 * a * a) < 1e-3
        assert abs(dk2 - 2.5 / (a * a)) < 1e-3

    def test_photon_field_written(self, tmp_path):
        rsf = tmp_path / "photon.rsf"
        code = run(["field", "--grid", 16, "--photon", "plus",
                    "--c-plus", "1", "--out-field", rsf])
        assert code == 0
        assert read_rsf(rsf).space == "position"

    @pytest.mark.parametrize("photon", ["plus", "minus"])
    @pytest.mark.parametrize("time", [0.0, 0.6])
    def test_photon_output_is_photon_wavefunctions(self, tmp_path, photon, time):
        # only the requested helicity is evaluated; the .rsf bytes and the
        # profile values are those of photon_wavefunctions
        a, cp = 1.3, 0.8 + 0.3j
        rsf, prof = tmp_path / "photon.rsf", tmp_path / "profile.csv"
        code = run(["field", "--grid", 32, "--a", a, "--c-plus", "0.8+0.3j",
                    "--time", time, "--photon", photon, "--out-field", rsf,
                    "--profile-out", prof])
        assert code == 0
        spec = SaturatingFieldSpec(a=a, c_plus=cp, c_minus=0.0)
        pick = 0 if photon == "plus" else 1
        grid = Grid3D.centered(32, 16.0 * a)
        want = tmp_path / "want.rsf"
        write_rsf(want, FieldGrid(photon_wavefunctions(grid, time * a, spec)[pick],
                                  grid, "position"))
        assert rsf.read_bytes() == want.read_bytes()
        rows = np.loadtxt(prof, delimiter=",", skiprows=1)
        pts = np.zeros((rows.shape[0], 3))
        pts[:, 2] = rows[:, 0]
        vals = photon_wavefunctions(pts, time * a, spec)[pick]
        assert np.array_equal(rows[:, 1::2], vals.real)
        assert np.array_equal(rows[:, 2::2], vals.imag)

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_nonfinite_time_exit2(self, tmp_path, capsys, time):
        rsf = tmp_path / "field.rsf"
        code = run(["field", "--grid", 16, "--time", time, "--out-field", rsf])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not rsf.exists()

    @pytest.mark.parametrize("a", [1.0, 1.3])
    @pytest.mark.parametrize("time", [0.5, -0.5])
    def test_spreading_law_through_the_file(self, tmp_path, capsys, a, time):
        # the field at time T (in units of a) read back from its .rsf file:
        # Dr^2 = a^2 (5/2 + T^2) and Dk^2 = 5/(2 a^2), the spreading law
        # d^2<r^2>/dt^2 = 2 with c = 1
        rsf = tmp_path / "f.rsf"
        assert run(["field", "--grid", 32, "--a", a, f"--time={time}",
                    "--out-field", rsf]) == 0
        assert run(["verify-bound", "--input", rsf]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["delta_r2"] / (a * a) / (2.5 + time * time) - 1.0) <= 1e-9
        assert abs(rep["delta_k2"] * a * a / 2.5 - 1.0) <= 1e-9

    def test_unwritable_output_exit2(self, tmp_path):
        code = run(["field", "--grid", 16,
                    "--out-field", tmp_path / "no" / "such" / "dir" / "f.rsf"])
        assert code == 2

    @pytest.mark.parametrize("args, t, spec", [
        ([], 0.0, SaturatingFieldSpec.simplest()),
        (["--a", 1.3, "--c-plus", "1+2j", "--c-minus", "0.5-0.3j", "--time", 0.6],
         0.6 * 1.3, SaturatingFieldSpec(a=1.3, c_plus=1 + 2j, c_minus=0.5 - 0.3j)),
    ], ids=["default", "complex-time"])
    def test_streamed_bytes_are_write_rsf_of_the_field(self, tmp_path, args, t, spec):
        # the z-slabs `field` writes as it evaluates them are the bytes of
        # the whole-grid field written by write_rsf
        rsf, want = tmp_path / "f.rsf", tmp_path / "want.rsf"
        assert run(["field", "--grid", 32, "--out-field", rsf] + args) == 0
        grid = Grid3D.centered(32, 16.0 * spec.a)
        write_rsf(want, FieldGrid(saturating_rs_field(grid, t, spec), grid, "position"))
        assert rsf.read_bytes() == want.read_bytes()

    def test_failure_on_a_later_slab_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # the file is opened once every check has passed; anything raised
        # while its slabs are written removes it, with the usual exit code
        # and one line
        def failing(*args, **kwargs):
            slabs = real(*args, **kwargs)

            def gen():
                for l, slab in enumerate(slabs):
                    if l == 5:
                        raise FloatingPointError("overflow encountered in multiply")
                    yield slab
            return gen()

        real = analytic_fields._field_slabs
        monkeypatch.setattr(analytic_fields, "_field_slabs", failing)
        rsf = tmp_path / "f.rsf"
        code = run(["field", "--grid", 16, "--out-field", rsf])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: arithmetic: overflow encountered in multiply\n"
        assert not rsf.exists()


class TestSpread:
    def test_saturating_spread(self, tmp_path, capsys):
        code = run(["spread", "--grid", 64, "--extent", 20,
                    "--times=-1,-0.5,0,0.5,1"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(rep["fit"]["acceleration"] - 2.0) < 0.02
        m = np.asarray(rep["second_moments"])
        t = np.asarray(rep["times"])
        assert np.all(m >= m[np.argmin(np.abs(t))] - 1e-12)

    def test_csv_output(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["spread", "--grid", 32, "--extent", 18, "--format", "csv",
                    "--out", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,second_moment,norm"
        assert len(lines) == 6

    def test_truncation_exit5(self):
        code = run(["spread", "--grid", 16, "--extent", 5,
                    "--times=-4,-2,0,2,4"])
        assert code == 5

    def test_csv_fields_are_the_json_numbers(self, capsys):
        args = ["spread", "--grid", 32, "--extent", 24, "--times=-1,-1e-7,0,1e-7,1"]
        assert run(args + ["--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert run(args) == 0
        rep = json.loads(capsys.readouterr().out)
        want = list(zip(rep["times"], rep["second_moments"], rep["norms"]))
        assert [tuple(float(v) for v in row.split(",")) for row in rows] == want

    def test_truncation_names_the_time_as_given(self, capsys):
        # at a = 2 the box cuts the packet off at t = 3 a and 6 a: the line
        # names the first, in units of a as in --times
        code = run(["spread", "--a", 2, "--grid", 16, "--extent", 12,
                    "--times=0,0.5,1,3,6"])
        out, err = capsys.readouterr()
        assert code == 5
        assert out == ""
        assert "t = 3.0;" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("times", ["--times=1.7e308,0,1,2,3", "--times=0,1,2,3,1.7e308"])
    def test_out_of_range_time_exit2(self, capsys, times):
        # every time is evaluated, so an overflow is an input error even
        # after a time whose density reaches the boundary (t = 2 here)
        code = run(["spread", "--grid", 16, "--extent", 12, times])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: arithmetic:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("times", ["--times=0,0,0,0,0", "--times=0,1"])
    def test_bad_times_exit2(self, capsys, times):
        # exit 1 means "bound violated": an unusable time list is an input
        # error, reported in one line, not a traceback
        code = run(["spread", "--grid", 16, times])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 2.0, "tolerance": 0.5}))
        code = run(["verify-bound", "--saturating", "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        # a = 2 from the config: product still 2.5, delta_r2 = 5a^2/2 = 10
        assert abs(rep["delta_r2"] - 10.0) < 1e-2
        # now override a on the command line
        code = run(["verify-bound", "--saturating", "--a", 1.0, "--config", cfg])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(rep["delta_r2"] - 2.5) < 1e-2

    def test_config_values_typed_like_flags(self, tmp_path, capsys):
        # {"grid": "64"} goes through --grid's own type: the same report as
        # --grid 64
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "64"}))
        base = ["verify-bound", "--method", "grid", "--extent", 14]
        assert run(base + ["--config", cfg]) == 0
        from_config = capsys.readouterr().out
        assert run(base + ["--grid", 64]) == 0
        assert from_config == capsys.readouterr().out

    @pytest.mark.parametrize("base, short, full", [
        (["spectrum"], ["--tol", "1e-12"], ["--tolerance", "1e-12"]),
        (["spectrum"], ["--tol=1e-12"], ["--tolerance=1e-12"]),
        (["verify-bound", "--method", "grid", "--grid", "32"], ["--tol", "0"],
         ["--tolerance", "0"]),
        (["verify-bound"], ["--form", "csv"], ["--format", "csv"]),
    ])
    def test_abbreviated_flag_wins(self, tmp_path, capsys, base, short, full):
        # argparse accepts an unambiguous prefix of a flag: it wins over
        # --config as the full flag does, where the config alone would
        # give another verdict or output; each config holds only keys of
        # its own command
        cfg = tmp_path / "cfg.json"
        keys = {"spectrum": {"tolerance": 0.25},
                "verify-bound": {"tolerance": 0.25, "format": "json"}}
        cfg.write_text(json.dumps(keys[base[0]]))
        results = []
        for flags in (short, full, []):
            code = run(base + flags + ["--config", cfg])
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert results[0] != results[2]

    @pytest.mark.parametrize("base, key", [
        (["verify-bound"], "input"),
        (["verify-bound"], "out"),
        (["field", "--grid", 16, "--out-field", "f.rsf"], "out_field"),
        (["spectrum"], "dump_eigenfunctions"),
    ])
    @pytest.mark.parametrize("value", [7, 2.5])
    def test_number_for_path_exit2(self, tmp_path, monkeypatch, capsys, base, key, value):
        # a path flag takes a JSON string only: a number is an input error
        # in one line naming the key, before any work, also where a flag
        # gives the path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({key: value}))
        code = run(base + ["--config", "c.json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: config") and len(err.strip().splitlines()) == 1
        assert repr(key) in err
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("base, key", [
        (["verify-bound"], "tolerence"),
        (["spectrum"], "tolerence"),
        (["spectrum"], "format"),
        (["field", "--grid", 16, "--out-field", "f.rsf"], "times"),
        (["spread", "--grid", 16], "photon"),
    ])
    def test_unknown_config_key_exit2(self, tmp_path, monkeypatch, capsys, base, key):
        # a key that names no option of the command (a misspelt one, or an
        # option of another command) is an input error in one line naming
        # the key, before any work, also after a valid key
        monkeypatch.chdir(tmp_path)
        valid = {"field": {"time": 0.5}}.get(base[0], {"tolerance": 1e-12})
        (tmp_path / "c.json").write_text(json.dumps({**valid, key: 1}))
        code = run(base + ["--config", "c.json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config {key!r}:") and len(err.strip().splitlines()) == 1
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("base", [
        ["verify-bound"],
        ["spectrum"],
        ["field", "--grid", 16, "--out-field", "f.rsf"],
        ["spread", "--grid", 16],
    ], ids=["verify-bound", "spectrum", "field", "spread"])
    @pytest.mark.parametrize("key, value", [("help", True), ("config", "other.json")])
    def test_help_and_config_keys_exit2(self, tmp_path, monkeypatch, capsys, base, key, value):
        # no config can set --help or --config, so each key is an unknown
        # key: exit 2 in one line naming it, before any work
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text(json.dumps({key: value}))
        code = run(base + ["--config", "c.json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == f"error: config {key!r}: not an option of {base[0]}\n"
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("cfg", [{"grid": 100}, {"a": "x"}, {"method": "fft"}, [1, 2]])
    def test_bad_config_value_exit2(self, tmp_path, capsys, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["verify-bound", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: config") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["verify-bound", "--tolerance", "nan"],
    ["verify-bound", "--tolerance", -1],
    ["spectrum", "--tolerance", "nan"],
    ["spread", "--grid", 16, "--tolerance", "inf"],
])
def test_bad_tolerance_exit2(capsys, args):
    # every comparison with NaN is false: an unchecked tolerance would read
    # as exit 1 ("bound violated")
    code = run(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --tolerance") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cfg", [{"tolerance": "nan"}, {"tolerance": -0.5}])
def test_bad_config_tolerance_exit2(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(["spectrum", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --tolerance") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["spread", "--grid", 16, "--extent", -4],
    ["verify-bound", "--method", "grid", "--grid", 16, "--extent", 0],
    ["field", "--grid", 16, "--extent", -4],
    ["verify-bound", "--a", -1],
    # non-finite spec values are rejected where the spec is built
    ["verify-bound", "--a", "inf"],
    ["field", "--grid", 16, "--c-plus", "nan"],
    ["spectrum", "--kappa-max", "nan"],
    # out-of-range arithmetic, not a traceback or RuntimeWarning lines: a^5
    # of the simplest packet past the float range (1e150, and 1e-100 last),
    # or a FloatingPointError under main's errstate
    ["verify-bound", "--a", 1e150],
    ["verify-bound", "--c-plus", 1e300, "--c-minus", 1e300],
    ["spectrum", "--kappa-max", 1e300],
    ["verify-bound", "--a", 1e-100],
])
def test_bad_spec_or_grid_exit2(tmp_path, capsys, args):
    # a bad packet scale or box is an input error in one line, not a
    # traceback at exit 1 ("bound violated")
    if args[0] == "field":
        args = args + ["--out-field", tmp_path / "f.rsf"]
    code = run(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "f.rsf").exists()
    if args[1] == "--a" and isinstance(args[2], float):
        assert f"a = {args[2]!r}" in err


# each command's output flags, the path to be appended
OUTPUT_FLAGS = [
    ["verify-bound", "--out"],
    ["spectrum", "--out"],
    ["spread", "--grid", 16, "--extent", 12, "--out"],
    ["spectrum", "--dump-eigenfunctions"],
    ["field", "--grid", 16, "--out-field"],
    ["field", "--grid", 16, "--out-field", "f.rsf", "--profile-out"],
]


@pytest.mark.parametrize("args", OUTPUT_FLAGS)
def test_missing_output_dir_exit2(tmp_path, capsys, args):
    # an unwritable output path is an input error in one line, not a
    # FileNotFoundError traceback at exit 1
    args = [str(tmp_path / a) if a == "f.rsf" else a for a in args]
    code = run(args + [tmp_path / "no" / "such" / "dir" / "out.txt"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    # the paths are checked before the work: nothing is printed or written
    assert out == ""
    assert not (tmp_path / "f.rsf").exists()


@pytest.mark.parametrize("args", OUTPUT_FLAGS)
def test_directory_output_path_exit2(tmp_path, monkeypatch, capsys, args):
    # an output path that is an existing directory is rejected before the
    # work too, not with an IsADirectoryError after it
    monkeypatch.chdir(tmp_path)
    code = run(args + ["."])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "is a directory" in err
    assert out == ""
    assert os.listdir(tmp_path) == []


# a command whose output flag names a file another flag reads or writes;
# f.rsf (a 16^3 field) and c.json exist beforehand
SHARED_PATHS = [
    ["verify-bound", "--input", "f.rsf", "--out", "f.rsf"],
    ["verify-bound", "--input", "f.rsf", "--out", "sub/../f.rsf"],
    ["verify-bound", "--config", "c.json", "--out", "c.json"],
    ["field", "--grid", 16, "--out-field", "x", "--profile-out", "x"],
    ["spectrum", "--out", "x", "--dump-eigenfunctions", "x"],
]


@pytest.mark.parametrize("args", SHARED_PATHS)
def test_output_names_another_file_exit2(tmp_path, monkeypatch, capsys, args):
    # it would be overwritten with no warning: rejected before the work
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run(["field", "--grid", 16, "--out-field", "f.rsf"]) == 0
    (tmp_path / "c.json").write_text('{"grid": 16}')
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    code = run(args)
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    flags = [a for a in args if str(a).startswith("--")]
    assert flags[-1] in err and flags[-2] in err
    assert out == ""
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("photon", ["plus", "minus"])
@pytest.mark.parametrize("coeffs", [["--c-minus", 1], ["--c-plus", 0, "--c-minus", 1]])
def test_photon_needs_c_plus_exit2(tmp_path, capsys, photon, coeffs):
    # the photon wave function is normalized by C+ alone: with C+ = 0 it
    # would be all zero, so it is an input error, not an empty field file
    code = run(["field", "--grid", 16, "--photon", photon, *coeffs,
                "--out-field", tmp_path / "z.rsf"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "--c-plus" in err
    assert not (tmp_path / "z.rsf").exists()


@pytest.mark.parametrize("name", ["nope.json", "."])
def test_unreadable_config_exit2(tmp_path, capsys, name):
    # a missing file and a directory: one line, no argparse usage
    code = run(["verify-bound", "--config", tmp_path / name])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read config file:")
    assert len(err.strip().splitlines()) == 1


def test_spread_truncation_one_line(capsys):
    # the TruncationError's message already says to enlarge the extent
    code = run(["spread", "--grid", 16, "--extent", 5, "--times=-4,-2,0,2,4"])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("error: truncation:") and len(err.strip().splitlines()) == 1


def test_cli_imports_no_private_name():
    # every report and writer the CLI runs is a public call of the package
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("rsuncert"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module, name", [
    (analytic_fields, "light_cone_vars"), (analytic_fields, "scalar_generator"),
    (analytic_fields, "saturating_field_t0"), (analytic_fields, "rotate"),
    (analytic_fields, "boost"), (kspace, "fourier_to_kspace"),
], ids=lambda v: getattr(v, "__name__", v))
def test_reference_names_not_in_package(module, name):
    # references that only the tests use live in tests/conftest.py
    import rsuncert

    for owner in (rsuncert, module):
        with pytest.raises(AttributeError):
            getattr(owner, name)


@pytest.mark.parametrize("args, spec, extent", [
    ([], SaturatingFieldSpec.simplest(C=1.0, a=1.0), 16.0),
    (["--c-plus", "0.8+0.3j", "--c-minus", "-0.2", "--extent", 20],
     SaturatingFieldSpec(a=1.0, c_plus=0.8 + 0.3j, c_minus=-0.2), 20.0),
])
def test_grid_method_is_the_pair_grid_report(capsys, args, spec, extent):
    # `verify-bound --method grid` prints the library's report of the pair
    # on the wavevector grid, to the bit
    run(["verify-bound", "--method", "grid", "--grid", 32] + args)
    want = uncertainty_product(spec.amplitudes(), Grid3D.centered(32, extent).fourier_dual())
    assert capsys.readouterr().out == want.to_json() + "\n"


def test_overflow_one_line_outside_pytest(tmp_path):
    # pytest turns RuntimeWarnings into errors; a plain interpreter would
    # print them, so run the console entry point in a fresh process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "rsuncert.cli", "verify-bound",
         "--c-plus", "1e300", "--c-minus", "1e300"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: arithmetic:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["spread", "--grid", 16, "--extent", 12, "--a", 1e-60],
    ["verify-bound", "--method", "grid", "--grid", 16, "--a", 1e-60],
])
def test_out_of_range_scale_readable(capsys, args):
    # the k-space density's scale overflows a float power, whose
    # OverflowError carries an errno pair: its text is printed, not the
    # (34, '...') tuple
    code = run(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: arithmetic: Numerical result out of range\n"


class TestBoundedMemory:
    """The file workflow never holds the field.  `field` evaluates and
    writes one z-slab at a time: its working set is the slab buffers (the
    slab, its scratch, three gathered tables, the -(x^2 + y^2) and key
    planes: 128 n^2 bytes) plus the per-radius tables (about 3 n^2 / 8
    radii), under 200 n^2 bytes in all.  `verify-bound --input` reads one
    component at a time into one buffer beside one density: 24 n^3 bytes."""

    n = 64

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            assert fn() == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("args", [[], ["--photon", "minus", "--time", "0.3"]],
                             ids=["default", "photon-minus"])
    def test_field_slab_working_set(self, tmp_path, args):
        rsf = tmp_path / "f.rsf"
        argv = ["field", "--grid", str(self.n), "--out-field", str(rsf)] + args
        peak = self.traced_peak(lambda: main(argv))
        assert peak < 200 * self.n ** 2  # 48 n^3 would be 64 times more
        assert rsf.stat().st_size > 48 * self.n ** 3

    def test_input_one_component_and_one_density(self, tmp_path):
        rsf = tmp_path / "f.rsf"
        assert run(["field", "--grid", self.n, "--out-field", rsf]) == 0
        argv = ["verify-bound", "--input", str(rsf), "--out", str(tmp_path / "r.json")]
        peak = self.traced_peak(lambda: main(argv))
        assert peak < 1.2 * 24 * self.n ** 3
