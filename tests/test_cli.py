import argparse
import dataclasses
import hashlib
import inspect
import os
import threading
import weakref

import numpy as np
import pytest

import panoray
from panoray import cli, fan_operator
from panoray.errors import FormatError
from panoray.reconstructor import ReconConfig
from panoray.renderer import RenderConfig, load_image
from panoray.volume import load_raw_volume, load_volume


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_settable_surface():
    # every knob has a caller outside the tests; a new one shows up here
    assert [f.name for f in dataclasses.fields(ReconConfig)] == [
        "lambda1", "max_iters", "step_size", "init", "tol", "beta"]
    assert [f.name for f in dataclasses.fields(RenderConfig)] == [
        "beta", "width", "height", "interpolation", "threads"]
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    common = ["-h", "--help", "--threads"]
    options = {name: [s for a in sub.choices[name]._actions for s in a.option_strings]
               for name in ("render", "reconstruct", "metrics")}
    assert options == {
        # the fan's width, samples and spacing come from --geometry alone
        "render": common + ["--vol", "--out", "--beta", "--height", "--geometry"],
        "reconstruct": common + ["--img", "--geometry", "--iters", "--step", "--init",
                                 "--out", "--report", "--truth"],
        "metrics": common + ["--a", "--b", "--threshold"],
    }


def test_exported_surface():
    # every name the package exports has a caller in the library, the CLI,
    # the benchmark or the README; a new one shows up here
    assert sorted(name for name, value in vars(panoray).items()
                  if not name.startswith("_") and not inspect.ismodule(value)) == [
        "BackProjectionMap", "CenterCurve", "DensityVolume", "DimsError", "FormatError",
        "GeometryConfig", "MetricsReport", "RayFan", "ReconConfig", "ReconReport",
        "RenderConfig", "SimPXImage", "aggregate_rho", "angle_for_center", "build_fan",
        "crossing_counts", "default_curve_for_grid", "dice", "evaluate", "extract_rays",
        "gradient", "load_image", "load_volume", "loss", "make_centers", "make_phantom",
        "mip", "psnr", "reconstruct", "render_simpx", "save_image", "save_pgm16",
        "save_rayfan", "save_volume", "ssim", "volume_mse"]


class TestPhantom:
    def test_golden_zero_volume(self, tmp_path):
        out = tmp_path / "z.pvol"
        assert run("phantom", "--kind", "uniform:0", "--dims", "4,4,4", "--out", out) == 0
        blob = out.read_bytes()
        assert blob == b"PVOL1 4 4 4\n" + b"\x00" * (4 * 4 * 4 * 4)

    def test_seed_changes_output(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.pvol", "b.pvol", "c.pvol"))
        run("phantom", "--kind", "sphere-set", "--dims", "8,8,8", "--seed", 1, "--out", a)
        run("phantom", "--kind", "sphere-set", "--dims", "8,8,8", "--seed", 1, "--out", b)
        run("phantom", "--kind", "sphere-set", "--dims", "8,8,8", "--seed", 2, "--out", c)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize("kind", [
        "sphere-set:8,8,8,nan,0.5", "sphere-set:8,8,8,inf,0.5", "sphere-set:-3",
        "sphere-set:2.5", "single-voxel:inf,0,0,1.0"])
    def test_bad_shape_parameters(self, tmp_path, capsys, kind):
        out = tmp_path / "v.pvol"
        assert run("phantom", "--kind", kind, "--dims", "16,16,16", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: invalid value:")
        assert not out.exists()


class TestRender:
    def test_golden_zero_image(self, tmp_path):
        vol = tmp_path / "z.pvol"
        img = tmp_path / "z.pimg"
        run("phantom", "--kind", "uniform:0", "--dims", "8,32,32", "--out", vol)
        assert run("render", "--vol", vol, "--out", img) == 0
        blob = img.read_bytes()
        assert blob == b"PIMG1 8 256\n" + b"\x00" * (8 * 256 * 4)

    def test_geometry_file(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=32,32\nwidth=64\nbeta=0.1\n# comment\n")
        vol = tmp_path / "v.pvol"
        img = tmp_path / "v.pimg"
        run("phantom", "--kind", "uniform:0.5", "--dims", "4,32,32", "--out", vol)
        assert run("render", "--vol", vol, "--geometry", geom, "--height", 4,
                   "--out", img) == 0
        image = load_image(img)
        assert image.dims == (4, 64)
        assert image.pixels.max() > 0.1

    def test_grid_mismatch(self, tmp_path, capsys):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\n")
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "uniform:0", "--dims", "4,32,32", "--out", vol)
        code = run("render", "--vol", vol, "--geometry", geom, "--out", tmp_path / "x")
        assert code == 1
        assert "error: inconsistent dims:" in capsys.readouterr().err

    def test_unknown_geometry_key(self, tmp_path, capsys):
        geom = tmp_path / "g.txt"
        geom.write_text("wobble=3\n")
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "uniform:0", "--dims", "4,32,32", "--out", vol)
        code = run("render", "--vol", vol, "--geometry", geom, "--out", tmp_path / "x")
        assert code == 1
        assert "error: malformed format:" in capsys.readouterr().err


class TestRaymap:
    def test_default_fan_export(self, tmp_path):
        out = tmp_path / "fan.txt"
        assert run("raymap", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "RAYFAN1 256 200 1"
        assert len(lines) == 257

    def test_golden_every_key(self, tmp_path):
        # a file that sets every geometry key, each one changing the fan;
        # the hash pins the whole parse-and-build path
        geom = tmp_path / "g.txt"
        geom.write_text(
            "grid=40,48\nwidth=96\nn_samples=40\ndelta=0.8\nangle_scale=0.9\nbeta=0.15\n"
            "coefficient=0.011\nspan=95\nx_range=-45,45\nstep=4.5\noffset=20,12\n"
            "scale=0.15\ninitial_angle=95\ntheta_10=0.9\n"
        )
        out = tmp_path / "fan.txt"
        assert run("raymap", "--geometry", geom, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "dfb8fa2087cbaeebbac275a4c08058860e293e9d49667e8fabe4c212295d9676"
        )


class TestBackproject:
    def test_uniform_round_trip(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=32,32\nwidth=64\n")
        vol, img = tmp_path / "v.pvol", tmp_path / "v.pimg"
        cnt, rho = tmp_path / "c.pvol", tmp_path / "r.pvol"
        run("phantom", "--kind", "uniform:0.5", "--dims", "6,32,32", "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 6, "--out", img)
        assert run("backproject", "--img", img, "--geometry", geom,
                   "--out-counts", cnt, "--out-rho", rho) == 0
        counts = load_raw_volume(cnt)
        rho_vol = load_raw_volume(rho)
        assert counts.shape == (6, 32, 32)
        covered = counts > 0
        assert np.abs(rho_vol[covered] - 0.5).max() < 0.01
        assert np.all(rho_vol[~covered] == 0.0)


class TestReconstruct:
    def test_loss_decreases(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\nbeta=0.3\n")
        vol, img = tmp_path / "v.pvol", tmp_path / "v.pimg"
        out, rep = tmp_path / "r.pvol", tmp_path / "rep.txt"
        run("phantom", "--kind", "sphere-set:2,8,8,3,0.8", "--dims", "4,16,16",
            "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 10,
                   "--init", "zeros", "--out", out, "--report", rep) == 0
        lines = rep.read_text().splitlines()
        assert float(lines[-1].split()[1]) < float(lines[0].split()[1])
        result = load_volume(out)
        assert result.dims == (4, 16, 16)

    def test_metrics_printed_with_truth(self, tmp_path, capsys):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\nbeta=0.3\n")
        vol, img, out = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "r.pvol"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 5,
                   "--truth", vol, "--out", out) == 0
        assert "psnr=" in capsys.readouterr().out


    @pytest.mark.parametrize("truth, error", [
        ("missing", "missing file"),
        ("malformed", "malformed format"),
        ("out of range", "invalid value"),
        ("wrong dims", "inconsistent dims"),
    ])
    def test_bad_truth_fails_before_solving(self, tmp_path, capsys, monkeypatch,
                                            truth, error):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\n")
        vol, img, bad = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "t.pvol"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        if truth == "malformed":
            bad.write_bytes(b"PVOL1 4 16 16\n" + b"\x00" * 8)
        elif truth == "out of range":
            bad.write_bytes(b"PVOL1 4 16 16\n"
                            + np.full((4, 16, 16), 1.5, dtype="<f4").tobytes())
        elif truth == "wrong dims":
            run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,17", "--out", bad)

        def solve(*args, **kwargs):
            raise AssertionError("the truth volume must be checked before solving")

        monkeypatch.setattr(cli.reconstructor, "reconstruct", solve)
        assert run("reconstruct", "--img", img, "--geometry", geom, "--truth", bad,
                   "--out", tmp_path / "r.pvol") == 1
        assert capsys.readouterr().err.startswith(f"error: {error}:")

    def test_truth_not_held_through_the_solve(self, tmp_path, capsys, monkeypatch):
        # the truth is read and checked before solving, dropped, and read
        # again after the solve to score the result
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\nbeta=0.3\n")
        vol, img, out = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "r.pvol"
        run("phantom", "--kind", "jaw-arch", "--dims", "4,16,16", "--seed", 3, "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        loaded, load = [], cli.volume.load_volume
        solve = cli.reconstructor.reconstruct

        def tracked_load(path):
            data = load(path)
            loaded.append(weakref.ref(data))
            return data

        def checked_solve(*args, **kwargs):
            assert len(loaded) == 1 and loaded[0]() is None
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli.volume, "load_volume", tracked_load)
        monkeypatch.setattr(cli.reconstructor, "reconstruct", checked_solve)
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 5,
                   "--truth", vol, "--out", out) == 0
        assert len(loaded) == 2
        assert run("metrics", "--a", out, "--b", vol) == 0
        # the lines the whole-volume float64 scoring printed, byte for byte
        line = "psnr=11.7401 ssim=4.36297 dice=22.4638 mse=0.0669876 threshold=0.2\n"
        assert capsys.readouterr().out == line * 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_truth_through_a_fifo(self, tmp_path, capsys):
        # a pipe can be read only once: its truth is held through the solve
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\nbeta=0.3\n")
        vol, img, out = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "r.pvol"
        run("phantom", "--kind", "jaw-arch", "--dims", "4,16,16", "--seed", 3, "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        fifo, done = tmp_path / "t.fifo", threading.Event()
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(vol.read_bytes())
            # a second open for reading would wait for a writer forever;
            # give it one that writes nothing, so it fails at once instead
            while not done.wait(0.01):
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:  # no reader
                    pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 5,
                       "--truth", fifo, "--out", out) == 0
        finally:
            done.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        line = "psnr=11.7401 ssim=4.36297 dice=22.4638 mse=0.0669876 threshold=0.2\n"
        assert capsys.readouterr().out == line

    def test_truth_changed_during_the_solve(self, tmp_path, capsys, monkeypatch):
        # the file read again to score must be the one checked before solving
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\n")
        vol, img, truth = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "t.pvol"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", truth)
        solve = cli.reconstructor.reconstruct

        def replacing_solve(*args, **kwargs):
            replacement = tmp_path / "new.pvol"
            run("phantom", "--kind", "uniform:0.5", "--dims", "4,16,16", "--out",
                replacement)
            os.replace(replacement, truth)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli.reconstructor, "reconstruct", replacing_solve)
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 1,
                   "--truth", truth, "--out", tmp_path / "r.pvol") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid value:")
        assert "changed during the solve" in captured.err


class TestOutputPaths:
    # an output that names an input or another output, is a directory or
    # lies in a missing directory is refused before any work, and every
    # input keeps its bytes

    @pytest.fixture
    def pipeline(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=16,16\nwidth=48\n")
        vol, img = tmp_path / "t.pvol", tmp_path / "v.pimg"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 4, "--out", img)
        return geom, vol, img

    def test_every_command_declares_its_paths(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(cli._PATHS) == set(sub.choices)

    def test_reconstruct_out_names_the_truth(self, tmp_path, capsys, pipeline):
        # the result used to be written over the truth, and the command then
        # failed because the truth had changed during the solve
        geom, truth, img = pipeline
        before = truth.read_bytes()
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 1,
                   "--truth", truth, "--out", truth) == 1
        assert capsys.readouterr().err.startswith("error: invalid value: --out ")
        assert truth.read_bytes() == before

    def test_reconstruct_report_names_the_truth(self, tmp_path, capsys, pipeline):
        # the report used to be written over the truth
        geom, truth, img = pipeline
        before, out = truth.read_bytes(), tmp_path / "r.pvol"
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 1,
                   "--out", out, "--report", truth, "--truth", truth) == 1
        assert capsys.readouterr().err.startswith("error: invalid value: --report ")
        assert truth.read_bytes() == before
        assert not out.exists()

    def test_backproject_outputs_name_one_file(self, tmp_path, capsys, pipeline):
        # both volumes used to go to one file, which kept only the second;
        # the second path is spelled differently and does not exist yet
        geom, _, img = pipeline
        before, out = img.read_bytes(), tmp_path / "x.pvol"
        assert run("backproject", "--img", img, "--geometry", geom, "--out-counts", out,
                   "--out-rho", tmp_path / "sub" / ".." / "x.pvol") == 1
        assert capsys.readouterr().err.startswith("error: invalid value: --out-rho ")
        assert img.read_bytes() == before
        assert not out.exists()

    def test_reconstruct_report_is_a_directory(self, tmp_path, capsys, pipeline):
        # the result used to be written before the report failed to open
        geom, _, img = pipeline
        out, report = tmp_path / "r.pvol", tmp_path / "adir"
        report.mkdir()
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 1,
                   "--out", out, "--report", report) == 1
        assert capsys.readouterr().err == (f"error: invalid value: --report {report} "
                                           "is a directory\n")
        assert not out.exists() and not any(report.iterdir())

    def test_reconstruct_report_in_a_missing_directory(self, tmp_path, capsys, pipeline):
        geom, _, img = pipeline
        out, report = tmp_path / "r.pvol", tmp_path / "nodir" / "rep.txt"
        assert run("reconstruct", "--img", img, "--geometry", geom, "--iters", 1,
                   "--out", out, "--report", report) == 1
        assert capsys.readouterr().err == (f"error: invalid value: --report {report}: "
                                           f"no directory {report.parent}\n")
        assert not out.exists() and not report.parent.exists()

    def test_backproject_rho_is_a_directory(self, tmp_path, capsys, pipeline):
        # the counts used to be written before the rho failed to open
        geom, _, img = pipeline
        counts, rho = tmp_path / "c.pvol", tmp_path / "adir"
        rho.mkdir()
        assert run("backproject", "--img", img, "--geometry", geom, "--out-counts", counts,
                   "--out-rho", rho) == 1
        assert capsys.readouterr().err == (f"error: invalid value: --out-rho {rho} "
                                           "is a directory\n")
        assert not counts.exists() and not any(rho.iterdir())

    def test_render_out_is_a_link_to_the_volume(self, tmp_path, capsys, pipeline):
        # a hard link is another path to the same file
        geom, vol, _ = pipeline
        before, link = vol.read_bytes(), tmp_path / "link.pvol"
        os.link(vol, link)
        assert run("render", "--vol", vol, "--geometry", geom, "--out", link) == 1
        assert capsys.readouterr().err.startswith("error: invalid value: --out ")
        assert vol.read_bytes() == before


class TestMetrics:
    def test_identity(self, tmp_path, capsys):
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "sphere-set", "--dims", "8,8,8", "--out", vol)
        assert run("metrics", "--a", vol, "--b", vol) == 0
        out = capsys.readouterr().out
        assert "psnr=99" in out
        assert "dice=100" in out
        assert "threshold=0.2" in out

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_rejected(self, tmp_path, capsys, threshold):
        # a NaN threshold used to binarize both volumes empty: dice=100
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "sphere-set", "--dims", "8,8,8", "--out", vol)
        assert run("metrics", "--a", vol, "--b", vol, "--threshold", threshold) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid value:")
        assert captured.out == ""

    def test_custom_threshold(self, tmp_path, capsys):
        a, b = tmp_path / "a.pvol", tmp_path / "b.pvol"
        run("phantom", "--kind", "uniform:0.3", "--dims", "8,8,8", "--out", a)
        run("phantom", "--kind", "uniform:0.5", "--dims", "8,8,8", "--out", b)
        assert run("metrics", "--a", a, "--b", b, "--threshold", 0.4) == 0
        out = capsys.readouterr().out
        assert "dice=0" in out
        assert "threshold=0.4" in out


class TestExport:
    def test_image_to_pgm(self, tmp_path):
        vol, img, pgm = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "v.pgm"
        run("phantom", "--kind", "uniform:0.5", "--dims", "4,32,32", "--out", vol)
        run("render", "--vol", vol, "--height", 4, "--out", img)
        assert run("export", "--img", img, "--format", "pgm", "--out", pgm) == 0
        assert pgm.read_bytes().startswith(b"P5\n256 4\n65535\n")

    def test_image_float_round_trip(self, tmp_path):
        vol, img, out = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "o.pimg"
        run("phantom", "--kind", "uniform:0.5", "--dims", "4,32,32", "--out", vol)
        run("render", "--vol", vol, "--height", 4, "--out", img)
        assert run("export", "--img", img, "--format", "float", "--out", out) == 0
        assert out.read_bytes() == img.read_bytes()

    def test_volume_float(self, tmp_path):
        vol, out = tmp_path / "v.pvol", tmp_path / "o.pvol"
        run("phantom", "--kind", "jaw-arch", "--dims", "8,16,16", "--out", vol)
        assert run("export", "--vol", vol, "--format", "float", "--out", out) == 0
        assert out.read_bytes() == vol.read_bytes()

    def test_volume_pgm_rejected(self, tmp_path, capsys):
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "uniform:0", "--dims", "4,4,4", "--out", vol)
        assert run("export", "--vol", vol, "--format", "pgm", "--out", tmp_path / "x") == 1
        assert "error: invalid value:" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        assert run("export", "--format", "pgm", "--out", tmp_path / "x") == 1
        assert "exactly one" in capsys.readouterr().err


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", ["phantom", "render", "raymap", "backproject",
                                         "reconstruct", "metrics", "export"])
    def test_below_one_rejected(self, tmp_path, capsys, command, threads):
        vol, img, out = tmp_path / "v.pvol", tmp_path / "v.pimg", tmp_path / "out"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,32,32", "--out", vol)
        assert run("render", "--vol", vol, "--out", img) == 0
        args = {
            "phantom": ["--kind", "uniform:0", "--dims", "4,4,4", "--out", out],
            "render": ["--vol", vol, "--out", out],
            "raymap": ["--out", out],
            "export": ["--img", img, "--format", "pgm", "--out", out],
            "backproject": ["--img", img, "--out-counts", out, "--out-rho", out],
            "reconstruct": ["--img", img, "--out", out],
            "metrics": ["--a", vol, "--b", vol],
        }[command]
        capsys.readouterr()
        assert run(command, *args, "--threads", threads) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid value: threads must be")
        assert captured.out == ""
        assert not out.exists()

    def test_multi_block_pipeline_identical(self, tmp_path, capsys):
        # 40 slices of the default 256x256 grid make three public operator
        # blocks, and SSIM scores 40 slices, so two workers really split the
        # work
        nz = 40
        assert fan_operator._PIECE < nz / 2
        outputs = {}
        for threads in (1, 2):
            d = tmp_path / f"t{threads}"
            d.mkdir()
            vol, img, cnt, rho, rec, rep = (d / n for n in (
                "v.pvol", "v.pimg", "c.pvol", "r.pvol", "rec.pvol", "rep.txt"))
            for step in (
                ("phantom", "--kind", "jaw-arch", "--dims", f"{nz},256,256", "--seed", 2,
                 "--out", vol),
                ("render", "--vol", vol, "--out", img),
                ("backproject", "--img", img, "--out-counts", cnt, "--out-rho", rho),
                ("reconstruct", "--img", img, "--iters", 2, "--out", rec, "--report", rep,
                 "--truth", vol),
                ("metrics", "--a", rec, "--b", vol),
            ):
                assert run(*step, "--threads", threads) == 0
            printed = capsys.readouterr().out
            assert printed.count("psnr=") == 2
            outputs[threads] = (printed, *(p.read_bytes() for p in (vol, img, cnt, rho, rec, rep)))
        assert outputs[1] == outputs[2]


class TestDiagnostics:
    def test_missing_file(self, tmp_path, capsys):
        assert run("metrics", "--a", tmp_path / "no.pvol", "--b", tmp_path / "no.pvol") == 1
        assert capsys.readouterr().err.startswith("error: missing file:")

    def test_malformed_volume(self, tmp_path, capsys):
        bad = tmp_path / "bad.pvol"
        bad.write_bytes(b"JUNK\n")
        assert run("metrics", "--a", bad, "--b", bad) == 1
        assert capsys.readouterr().err.startswith("error: malformed format:")

    def test_dims_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.pvol", tmp_path / "b.pvol"
        run("phantom", "--kind", "uniform:0", "--dims", "4,4,4", "--out", a)
        run("phantom", "--kind", "uniform:0", "--dims", "8,8,8", "--out", b)
        assert run("metrics", "--a", a, "--b", b) == 1
        assert capsys.readouterr().err.startswith("error: inconsistent dims:")

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("phantom", "--kind", "uniform:0", "--dims", "4,4,4",
                "--out", tmp_path / "x", "--wobble")
        assert exc.value.code == 2

    def test_dims_not_integers(self, tmp_path, capsys):
        # used to print int()'s "invalid literal for int() with base 10: 'a'"
        assert run("phantom", "--kind", "uniform:0", "--dims", "a,b,c",
                   "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == (
            "error: invalid value: --dims expects three comma-separated integers "
            "nz,ny,nx, got 'a,b,c'\n")

    def test_export_to_directory(self, tmp_path, capsys):
        # refused before any work, as every output path that is a directory
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "uniform:0", "--dims", "2,4,4", "--out", vol)
        assert run("export", "--vol", vol, "--format", "float", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value:") and str(tmp_path) in err
        assert err.count("\n") == 1

    def test_render_from_directory(self, tmp_path, capsys):
        assert run("render", "--vol", tmp_path, "--out", tmp_path / "i.pimg") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read or write:") and str(tmp_path) in err
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_to_full_device(self, capsys):
        assert run("raymap", "--out", "/dev/full") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read or write:") and err.count("\n") == 1

    def test_phantom_too_large_to_allocate(self, tmp_path, capsys):
        # 10^15 voxels: numpy refuses the allocation without touching memory
        out = tmp_path / "x.pvol"
        assert run("phantom", "--kind", "uniform:0", "--dims", "100000,100000,100000",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory:") and err.count("\n") == 1
        assert not out.exists()

    def test_bad_phantom_value(self, tmp_path, capsys):
        assert run("phantom", "--kind", "uniform:7", "--dims", "4,4,4",
                   "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err.startswith("error: invalid value:")


class TestGeometryExtras:
    def test_theta_override_via_file(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=32,32\nwidth=64\ntheta_10=0.75\n")
        out = tmp_path / "fan.txt"
        assert run("raymap", "--geometry", geom, "--out", out) == 0
        assert out.read_text().splitlines()[0] == "RAYFAN1 64 200 1"

    def test_bad_geometry_line(self, tmp_path, capsys):
        geom = tmp_path / "g.txt"
        geom.write_text("no equals sign here\n")
        assert run("raymap", "--geometry", geom, "--out", tmp_path / "x") == 1
        assert "error: malformed format:" in capsys.readouterr().err

    def test_non_ascii_geometry_names_the_line(self, tmp_path, capsys):
        # used to fail as a bare codec error that named no file
        geom = tmp_path / "g.txt"
        geom.write_bytes(b"grid=32,32\n# caf\xc3\xa9\nwidth=64\n")
        with pytest.raises(FormatError, match=r"g\.txt:2: line is not ASCII"):
            cli.load_geometry(geom)
        assert run("raymap", "--geometry", geom, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == f"error: malformed format: {geom}:2: line is not ASCII\n"

    @pytest.mark.parametrize("key", ["theta_20", "theta_25", "theta_x", "theta_-1", "theta_"])
    def test_theta_key_outside_segments(self, tmp_path, capsys, key):
        # only segments 0..19 exist; other theta keys used to be ignored or
        # fail later with a bare int() error
        geom = tmp_path / "g.txt"
        geom.write_text(f"grid=32,32\nwidth=64\n{key}=0.1\n")
        with pytest.raises(FormatError, match=key):
            cli.load_geometry(geom)
        assert run("raymap", "--geometry", geom, "--out", tmp_path / "x") == 1
        assert "error: malformed format:" in capsys.readouterr().err

    @pytest.mark.parametrize("first, second", [
        ("grid=64,64", "grid=32,32"), ("theta_5=0.4", "theta_05=0.6"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, capsys, first, second):
        # the last value used to win silently; theta keys name segments, so
        # theta_05 repeats theta_5
        geom = tmp_path / "g.txt"
        geom.write_text(f"{first}\nwidth=64\n{second}\n")
        out = tmp_path / "fan.txt"
        assert run("raymap", "--geometry", geom, "--out", out) == 1
        key, again = first.split("=")[0], second.split("=")[0]
        assert capsys.readouterr().err == (
            f"error: malformed format: {geom}:3: geometry key {again!r} repeats "
            f"{key!r} of line 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "coefficient=nan", "span=nan", "scale=nan", "offset=nan,0", "initial_angle=nan",
        "angle_scale=nan", "theta_3=nan", "delta=nan", "step=nan", "x_range=nan,40",
        "scale=inf", "delta=inf", "theta_3=inf",
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, line):
        # these used to write NaN rays, silently drop rotation steps, or fail
        # with a bare float-to-int conversion error
        geom = tmp_path / "g.txt"
        geom.write_text(f"grid=32,32\nwidth=64\n{line}\n")
        out = tmp_path / "fan.txt"
        assert run("raymap", "--geometry", geom, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: invalid value:")
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "scale=abc", "coefficient=abc", "span=1,2", "step=", "x_range=a,40", "x_range=-40,b",
        "offset=a,2", "offset=2,b", "initial_angle=abc", "width=1.5", "n_samples=1e3",
        "delta=abc", "angle_scale=abc", "theta_3=abc", "beta=abc",
    ])
    def test_unparseable_number_names_its_key(self, tmp_path, capsys, line):
        # these used to print a bare Python conversion message, such as
        # "invalid literal for int() with base 10: '1.5'", naming no key
        key = line.split("=")[0]
        geom = tmp_path / "g.txt"
        geom.write_text(f"grid=32,32\n{line}\n")
        out = tmp_path / "fan.txt"
        assert run("raymap", "--geometry", geom, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value:") and key in err
        assert not out.exists()

    def test_theta_keys_at_segment_bounds(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("theta_0=0.4\ntheta_19=0.4\n")
        raw = cli.load_geometry(geom)
        cfg = cli.build_geometry(raw, (32, 32))
        assert cfg.theta_overrides == {0: 0.4, 19: 0.4}

    @pytest.mark.parametrize("grid", ["inf,64", "64.7,64", "64", "64,64,64", "a,b", "64,"])
    def test_grid_must_be_two_integers(self, tmp_path, capsys, grid):
        # inf used to escape as an OverflowError, 64.7 was truncated to 64
        geom = tmp_path / "g.txt"
        geom.write_text(f"grid={grid}\nwidth=64\n")
        out = tmp_path / "fan.txt"
        assert run("raymap", "--geometry", geom, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: malformed format:")
        assert not out.exists()

    def test_non_positive_grid_is_a_dims_error(self, tmp_path, capsys):
        # well-formed integers: the grid is checked before the default arch
        # is placed on it, or rejected as a mismatch with the volume's grid
        geom = tmp_path / "g.txt"
        geom.write_text("grid=0,64\nwidth=64\n")
        assert run("raymap", "--geometry", geom, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err.startswith(
            "error: inconsistent dims: axial bounds must be positive")
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "uniform:0", "--dims", "2,64,64", "--out", vol)
        assert run("render", "--vol", vol, "--geometry", geom, "--out", tmp_path / "i") == 1
        assert capsys.readouterr().err.startswith("error: inconsistent dims:")

    def test_backproject_width_mismatch(self, tmp_path, capsys):
        g1 = tmp_path / "g1.txt"
        g1.write_text("grid=16,16\nwidth=48\n")
        g2 = tmp_path / "g2.txt"
        g2.write_text("grid=16,16\nwidth=32\n")
        vol, img = tmp_path / "v.pvol", tmp_path / "v.pimg"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", vol)
        run("render", "--vol", vol, "--geometry", g1, "--height", 4, "--out", img)
        assert run("backproject", "--img", img, "--geometry", g2,
                   "--out-counts", tmp_path / "c.pvol", "--out-rho", tmp_path / "r.pvol") == 1
        assert capsys.readouterr().err.startswith("error: inconsistent dims:")
        assert not (tmp_path / "c.pvol").exists()

    def test_reconstruct_width_mismatch(self, tmp_path, capsys):
        # image rendered for one fan width, reconstructed with another
        g1 = tmp_path / "g1.txt"
        g1.write_text("grid=16,16\nwidth=48\n")
        g2 = tmp_path / "g2.txt"
        g2.write_text("grid=16,16\nwidth=32\n")
        vol, img = tmp_path / "v.pvol", tmp_path / "v.pimg"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,16,16", "--out", vol)
        run("render", "--vol", vol, "--geometry", g1, "--height", 4, "--out", img)
        assert run("reconstruct", "--img", img, "--geometry", g2, "--iters", 2,
                   "--out", tmp_path / "r.pvol") == 1
        assert "error: inconsistent dims:" in capsys.readouterr().err

    def test_render_beta_must_match_geometry(self, tmp_path, capsys):
        # backproject and reconstruct read the geometry's beta, so a render
        # at another beta would be inverted with the wrong attenuation
        geom = tmp_path / "g.txt"
        geom.write_text("grid=32,32\nwidth=64\nbeta=0.01\n")
        vol = tmp_path / "v.pvol"
        a, b = tmp_path / "a.pimg", tmp_path / "b.pimg"
        run("phantom", "--kind", "uniform:0.5", "--dims", "2,32,32", "--out", vol)
        assert run("render", "--vol", vol, "--geometry", geom, "--height", 2, "--beta", 0.2,
                   "--out", b) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value:")
        assert "0.2" in err and "0.01" in err and "beta=" in err
        assert not b.exists()
        # no geometry file: the default beta
        assert run("render", "--vol", vol, "--height", 2, "--beta", 0.03, "--out", b) == 1
        assert "0.02" in capsys.readouterr().err
        run("render", "--vol", vol, "--geometry", geom, "--height", 2, "--out", a)
        assert run("render", "--vol", vol, "--geometry", geom, "--height", 2, "--beta", 0.01,
                   "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("beta", ["nan", "inf", "-5", "0"])
    def test_geometry_beta_is_checked_before_any_output(self, tmp_path, capsys, beta):
        # every geometry command reads the file's beta through one check, so
        # raymap, which does not use it, rejects it as backproject does
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("grid=32,32\n")
        bad.write_text(f"grid=32,32\nbeta={beta}\n")
        vol, img = tmp_path / "v.pvol", tmp_path / "v.pimg"
        run("phantom", "--kind", "uniform:0.4", "--dims", "2,32,32", "--out", vol)
        run("render", "--vol", vol, "--geometry", good, "--height", 2, "--out", img)
        capsys.readouterr()
        outs = [tmp_path / "fan.txt", tmp_path / "c.pvol", tmp_path / "rho.pvol"]
        for argv in (("raymap", "--geometry", bad, "--out", outs[0]),
                     ("backproject", "--img", img, "--geometry", bad,
                      "--out-counts", outs[1], "--out-rho", outs[2])):
            assert run(*argv) == 1
            assert capsys.readouterr().err == (
                f"error: invalid value: beta must be finite and > 0, got {float(beta)}\n")
        assert not any(p.exists() for p in outs)

    def test_truth_grid_mismatch_fails_fast(self, tmp_path, capsys):
        vol, img = tmp_path / "v.pvol", tmp_path / "v.pimg"
        run("phantom", "--kind", "uniform:0.4", "--dims", "4,64,64", "--out", vol)
        run("render", "--vol", vol, "--height", 4, "--out", img)
        # no geometry file: reconstruct defaults to a 256x256 grid
        assert run("reconstruct", "--img", img, "--iters", 1, "--truth", vol,
                   "--out", tmp_path / "r.pvol") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: inconsistent dims:")
        assert "grid=" in err
