import numpy as np
import pytest

from panoray import cli
from panoray.errors import FormatError
from panoray.renderer import load_image
from panoray.volume import load_raw_volume, load_volume


def run(*argv):
    return cli.main([str(a) for a in argv])


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


class TestMetrics:
    def test_identity(self, tmp_path, capsys):
        vol = tmp_path / "v.pvol"
        run("phantom", "--kind", "sphere-set", "--dims", "8,8,8", "--out", vol)
        assert run("metrics", "--a", vol, "--b", vol) == 0
        out = capsys.readouterr().out
        assert "psnr=99" in out
        assert "dice=100" in out
        assert "threshold=0.2" in out

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

    def test_non_positive_grid_keeps_its_errors(self, tmp_path, capsys):
        # well-formed integers: rejected where they were before, as an
        # invalid arch placement or as a mismatch with the volume's grid
        geom = tmp_path / "g.txt"
        geom.write_text("grid=0,64\nwidth=64\n")
        assert run("raymap", "--geometry", geom, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err.startswith("error: invalid value:")
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

    def test_render_flag_overrides_geometry(self, tmp_path):
        geom = tmp_path / "g.txt"
        geom.write_text("grid=32,32\nwidth=64\nbeta=0.01\n")
        vol = tmp_path / "v.pvol"
        a, b = tmp_path / "a.pimg", tmp_path / "b.pimg"
        run("phantom", "--kind", "uniform:0.5", "--dims", "2,32,32", "--out", vol)
        run("render", "--vol", vol, "--geometry", geom, "--height", 2, "--out", a)
        run("render", "--vol", vol, "--geometry", geom, "--height", 2, "--beta", 0.2,
            "--out", b)
        assert load_image(b).pixels.max() > 5 * load_image(a).pixels.max()

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
