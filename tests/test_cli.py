import os
import runpy
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import mcrefine
from mcrefine import basis, cli, codec
from mcrefine.cli import ConfigError, RunConfig, load_config
from mcrefine.codec import DEFAULT_QPS, EncoderConfig
from mcrefine.extrapolate import ALGORITHMS


@pytest.fixture(scope="module")
def seq_path(tmp_path_factory):
    """A small noisy translating sequence, written once for the module."""
    path = tmp_path_factory.mktemp("seq") / "in.yuv"
    rc = cli.main(["synth", "--kind", "translate", "--width", "64",
                   "--height", "64", "--count", "4", "--noise-sigma", "8",
                   "--seed", "0", "--out", str(path)])
    assert rc == 0
    return path


def test_every_exported_name_resolves():
    for name in mcrefine.__all__:
        assert getattr(mcrefine, name) is not None, name


def test_import_leaves_scipy_to_first_use():
    # scipy's transforms and LAPACK are most of a cold start; `synth` and
    # `bd` never use them, so the first transform or solve imports them
    code = ("import sys, mcrefine; print([m for m in ('scipy.fft', "
            "'scipy.linalg') if m in sys.modules])")
    src = str(Path(mcrefine.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None, {})
        assert cfg.width == 352 and cfg.height == 288
        assert cfg.algorithms == ("none", "msa")
        assert cfg.qps == DEFAULT_QPS
        assert cfg.mu == 0.5 and cfg.rho == 0.8

    def test_ini_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nwidth = 64\nheight = 48\nrho = 0.7\n"
                        "algorithms = none, fsa\nqps = 22, 28\nn_bf = 8\n")
        cfg = load_config(str(path), {})
        assert (cfg.width, cfg.height) == (64, 48)
        assert cfg.rho == 0.7
        assert cfg.algorithms == ("none", "fsa")
        assert cfg.qps == (22, 28)
        assert cfg.n_bf == 8

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nwidth = 64\nheight = 64\nqps = 22, 28\n")
        cfg = load_config(str(path), {"qps": "22,28,34,40", "height": 128})
        assert cfg.qps == (22, 28, 34, 40)
        assert cfg.height == 128
        assert cfg.width == 64  # untouched file value survives

    def test_none_override_ignored(self, tmp_path):
        cfg = load_config(None, {"width": None, "height": 96, "frames": None})
        assert cfg.width == 352 and cfg.height == 96

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nwidht = 64\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path), {})

    def test_seed_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nseed = 0\n")
        with pytest.raises(ConfigError, match="unknown config key 'seed'"):
            load_config(str(path), {})

    def test_missing_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[general]\nwidth = 64\n")
        with pytest.raises(ConfigError, match="no \\[run\\] section"):
            load_config(str(path), {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.ini"), {})

    def test_validation_bad_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            load_config(None, {"algorithms": "none,quantum"})

    def test_validation_geometry(self):
        with pytest.raises(ConfigError, match="not a multiple"):
            load_config(None, {"width": 100, "height": 64})

    def test_validation_block_size_before_any_frame(self):
        # 24 divides the frame and is a multiple of 8, but not a power of two
        with pytest.raises(ConfigError, match="power of two"):
            load_config(None, {"width": 48, "height": 48, "block_size": 24})
        with pytest.raises(ConfigError, match="power of two"):
            load_config(None, {"block_size": 0})

    @pytest.mark.parametrize("algorithms", [",", " , "])
    def test_validation_empty_algorithms(self, algorithms, tmp_path):
        # an empty selection used to run nothing and write header-only CSVs
        with pytest.raises(ConfigError, match="no algorithm selected"):
            load_config(None, {"algorithms": algorithms})
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nalgorithms ={algorithms}\n")
        with pytest.raises(ConfigError, match="no algorithm selected"):
            load_config(str(path), {})

    @pytest.mark.parametrize("key, raw", [("width", "6x4"),
                                          ("mu", "half"),
                                          ("qps", "22, x")])
    def test_unparsable_value_names_file_and_key(self, tmp_path, key, raw):
        # a bad value used to surface as the bare conversion error
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert str(err.value) == f"{path}: cannot parse {key} = {raw!r}"

    def test_validation_duplicate_algorithms(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(None, {"algorithms": "msa,msa"})

    def test_parameter_errors_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            load_config(None, {"rho": 1.5})
        with pytest.raises(ConfigError):
            load_config(None, {"tau": 0.0})

    def test_encoder_config_wiring(self):
        cfg = load_config(None, {"msa_iterations": 7, "gamma": 0.4})
        econf = cfg.encoder_config("msa")
        assert econf.extrapolation.iterations == 7
        assert econf.extrapolation.gamma == 0.4
        assert cfg.encoder_config("none").extrapolation is None
        assert cfg.encoder_config("fsa").extrapolation.iterations == 200


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = cli.main(["predict", "--input", str(tmp_path / "nope.yuv"),
                       "--width", "64", "--height", "64"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "encode"])
    def test_one_frame_input(self, command, tmp_path, capsys):
        seq = tmp_path / "one.yuv"
        assert cli.main(["synth", "--width", "32", "--height", "32",
                         "--count", "1", "--out", str(seq)]) == 0
        out = tmp_path / "out.csv"
        rc = cli.main([command, "--input", str(seq), "--width", "32",
                       "--height", "32", "--out-csv", str(out)])
        assert rc == 2
        assert "need at least two frames" in capsys.readouterr().err
        assert not out.exists()

    def test_block_size_above_64_fails_before_any_basis(
            self, tmp_path, monkeypatch, capsys):
        seq = tmp_path / "big.yuv"
        assert cli.main(["synth", "--width", "128", "--height", "128",
                         "--count", "2", "--out", str(seq)]) == 0

        def no_basis(*args):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(basis, "build_basis", no_basis)
        out = tmp_path / "rd.csv"
        rc = cli.main(["encode", "--input", str(seq), "--width", "128",
                       "--height", "128", "--block-size", "128",
                       "--out-csv", str(out)])
        assert rc == 2
        assert "to 64, got 128" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value(self, seq_path, capsys):
        rc = cli.main(["predict", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--algorithms", "none,warp"])
        assert rc == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_algorithm_offers_none(self, seq_path, capsys):
        rc = cli.main(["predict", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--algorithms", "none,quantum"])
        assert rc == 2
        assert "choose from ('none', 'fsa', 'rba', 'msa')" \
            in capsys.readouterr().err

    def test_unusable_quantizer_steps(self, seq_path, tmp_path, capsys):
        out = tmp_path / "rd.csv"
        rc = cli.main(["encode", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--qps=-300,-200,-150,-120",
                       "--out-csv", str(out)])
        assert rc == 2
        assert "quantizer step" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_quantizer_ladder(self, seq_path, tmp_path, capsys):
        # it used to be refused as "must be strictly increasing"
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nqps =\n")
        out = tmp_path / "rd.csv"
        for ladder in (["--qps", ","], ["--config", str(ini)]):
            rc = cli.main(["encode", "--input", str(seq_path), "--width",
                           "64", "--height", "64", *ladder,
                           "--out-csv", str(out)])
            assert rc == 2
            assert "quantizer ladder is empty" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_weight(self, seq_path, capsys):
        rc = cli.main(["predict", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--mu", "nan"])
        assert rc == 2
        assert "mu must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("width, height", [(0, 0), (-16, 32)])
    def test_nonpositive_frame_size(self, width, height, tmp_path, capsys):
        # refused by the config check, before the input is opened: the
        # input does not even exist
        rc = cli.main(["encode", "--input", str(tmp_path / "any.yuv"),
                       "--width", str(width), "--height", str(height)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"frame dimensions must be positive, got {width}x{height}" \
            in err
        assert "Traceback" not in err

    def test_no_input_given(self, capsys):
        rc = cli.main(["encode", "--width", "64", "--height", "64"])
        assert rc == 2
        assert "--input" in capsys.readouterr().err

    def test_bd_rejects_unusable_curves(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("rate_kbps,psnr_db\n100,30\n200,33\n")
        rc = cli.main(["bd", "--anchor", str(short), "--test", str(short)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["none,fast,30", "none,100,n/a"])
    def test_bd_non_numeric_value_names_file_and_line(self, tmp_path,
                                                      capsys, row):
        # a non-numeric rate or PSNR used to give the bare conversion error
        bad = tmp_path / "bad.csv"
        bad.write_text(f"algorithm,rate_kbps,psnr_db\nnone,100,30\n{row}\n")
        rc = cli.main(["bd", "--anchor", str(bad), "--test", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 3: rate_kbps ")
        assert "must both be numbers" in err

    @pytest.mark.parametrize("command", ["predict", "encode"])
    def test_empty_algorithm_selection(self, command, tmp_path, capsys):
        # refused before the input is read: the input does not even exist
        out = tmp_path / "out.csv"
        rc = cli.main([command, "--input", str(tmp_path / "any.yuv"),
                       "--width", "64", "--height", "64",
                       "--algorithms", ",", "--out-csv", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: no algorithm selected\n"
        assert not out.exists()

    def test_bd_missing_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("rate,quality\n100,30\n")
        rc = cli.main(["bd", "--anchor", str(bad), "--test", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("\n  \n", "empty file"),
        ("algorithm,rate_kbps,psnr_db\nnone,100,30\nnone,200\n",
         "line 3 has 2 fields, the header 3"),
    ])
    def test_bd_refuses_unreadable_csv(self, tmp_path, capsys, text,
                                       message):
        # an empty file used to fail on ``rows[0]`` and a short row on
        # ``parts[pidx]``, both with a traceback and exit 1
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc = cli.main(["bd", "--anchor", str(bad), "--test", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--anchor-algorithm",
                                      "--test-algorithm"])
    def test_bd_algorithm_needs_its_column(self, tmp_path, capsys, flag):
        # a selection used to be ignored, so every row counted
        curve = tmp_path / "curve.csv"
        curve.write_text("rate_kbps,psnr_db\n100,30\n200,33\n400,36\n"
                         "800,39\n")
        argv = ["bd", "--anchor", str(curve), "--test", str(curve)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(argv + [flag, "msa"]) == 2
        assert "no algorithm column to select 'msa'" \
            in capsys.readouterr().err


class TestPredictCommand:
    def test_csv_schema_and_determinism(self, seq_path, tmp_path, capsys):
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        argv = ["predict", "--input", str(seq_path), "--width", "64",
                "--height", "64", "--algorithms", "none,msa",
                "--msa-iterations", "6", "--search-range", "8"]
        assert cli.main(argv + ["--out-csv", str(out1)]) == 0
        assert cli.main(argv + ["--out-csv", str(out2)]) == 0
        text = out1.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == ("algorithm,frame,psnr_mc_db,psnr_pred_db,"
                            "refined_fraction,side_bits")
        assert len(lines) == 1 + 2 * 3  # two algorithms, three P-frames
        for row in lines[1:]:
            algo, t, mc, pred, refined, bits = row.split(",")
            assert algo in ("none", "msa")
            assert 1 <= int(t) <= 3
            assert float(pred) > 20.0
            assert 0.0 <= float(refined) <= 1.0
            assert int(bits) > 0
        # a repeat run writes the same bytes
        assert text == out2.read_text()
        # 'none' rows predict exactly the MC quality and refine nothing
        for row in lines[1:4]:
            _, _, mc, pred, refined, _ = row.split(",")
            assert mc == pred and float(refined) == 0.0

    def test_frames_are_released_once_predicted(self, seq_path,
                                                monkeypatch):
        # only the reference and the current frame are alive while a frame
        # is predicted, so memory does not grow with the sequence length
        frames, alive = [], []
        read, predict = cli.read_frames, cli.predict_frame

        def reading(source, span):
            out = read(source, span)
            frames.extend(weakref.ref(f) for f in out)
            return out

        def predicting(*args):
            alive.append(sum(f() is not None for f in frames))
            return predict(*args)

        monkeypatch.setattr(cli, "read_frames", reading)
        monkeypatch.setattr(cli, "predict_frame", predicting)
        assert cli.main(["predict", "--input", str(seq_path), "--width", "64",
                         "--height", "64", "--algorithms", "none,msa",
                         "--msa-iterations", "1", "--search-range", "4"]) == 0
        assert len(frames) == 4 and alive == [2] * 6

    def test_csv_bytes_do_not_depend_on_chunk_size(self, tmp_path,
                                                   monkeypatch):
        seq = tmp_path / "in.yuv"
        assert cli.main(["synth", "--width", "64", "--height", "48",
                         "--count", "3", "--noise-sigma", "6",
                         "--out", str(seq)]) == 0
        texts = []
        for chunk in (1, 3, 16):
            monkeypatch.setattr(codec, "REFINE_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}.csv"
            assert cli.main(["predict", "--input", str(seq), "--width", "64",
                             "--height", "48", "--algorithms", "none,msa",
                             "--out-csv", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_jobs_flag_is_gone(self, seq_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--input", str(seq_path), "--width", "64",
                      "--height", "64", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestEncodeCommand:
    def test_full_pipeline(self, seq_path, tmp_path, capsys):
        rd = tmp_path / "rd.csv"
        timing = tmp_path / "timing.txt"
        summary = tmp_path / "summary.txt"
        rc = cli.main(["encode", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--qps", "22,28,34,40",
                       "--algorithms", "none,msa", "--msa-iterations", "6",
                       "--search-range", "8",
                       "--out-csv", str(rd), "--timing", str(timing),
                       "--summary", str(summary)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- none" in out and "-- msa" in out
        assert "BD-rate" in out

        lines = rd.read_text().strip().splitlines()
        assert lines[0] == "algorithm,qp,qstep,rate_kbps,psnr_db,refined_fraction"
        assert len(lines) == 1 + 2 * 4
        rates = {}
        for row in lines[1:]:
            algo, qp, qstep, rate, p, rf = row.split(",")
            rates.setdefault(algo, []).append(float(rate))
            assert float(qstep) == pytest.approx(2 ** ((float(qp) - 4) / 6))
            assert float(p) > 20.0
        for algo, rs in rates.items():
            assert rs == sorted(rs)

        assert "ms/frame" in timing.read_text()
        assert "msa" in summary.read_text()

        # byte-identical on a re-run (timing excluded from the CSV)
        rd2 = tmp_path / "rd2.csv"
        rc = cli.main(["encode", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--qps", "22,28,34,40",
                       "--algorithms", "none,msa", "--msa-iterations", "6",
                       "--search-range", "8", "--out-csv", str(rd2)])
        assert rc == 0
        assert rd.read_bytes() == rd2.read_bytes()

        # feed both curves back through the bd subcommand
        rc = cli.main(["bd", "--anchor", str(rd), "--test", str(rd),
                       "--anchor-algorithm", "none",
                       "--test-algorithm", "msa"])
        assert rc == 0
        assert "BD-rate" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithms, reason", [
        ("msa", "the selection has no 'none' anchor to compare against"),
        ("none", "the selection has no refinement to compare with the "
                 "'none' anchor"),
    ])
    def test_summary_without_bd_means_says_why(self, seq_path, tmp_path,
                                               capsys, algorithms, reason):
        # the summary file used to be left unwritten
        summary = tmp_path / "summary.txt"
        rc = cli.main(["encode", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--frames", "2", "--qps", "28",
                       "--algorithms", algorithms, "--msa-iterations", "2",
                       "--search-range", "4", "--summary", str(summary)])
        assert rc == 0
        want = f"no Bjontegaard means computed: {reason}\n"
        assert summary.read_text() == want
        assert capsys.readouterr().out.endswith(want)

    def test_config_file_drives_encode(self, seq_path, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nwidth = 64\nheight = 64\nqps = 28, 34\n"
                       "algorithms = none\nsearch_range = 8\n"
                       f"input = {seq_path}\n")
        rd = tmp_path / "rd.csv"
        rc = cli.main(["encode", "--config", str(ini), "--out-csv", str(rd)])
        assert rc == 0
        lines = rd.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(row.startswith("none,") for row in lines[1:])

    @pytest.mark.parametrize("block", ["8", "16"])
    def test_csv_bytes_do_not_depend_on_schedule(self, block, tmp_path,
                                                 monkeypatch):
        # wave by wave against block by block in line-scan order
        seq = tmp_path / "in.yuv"
        assert cli.main(["synth", "--width", "96", "--height", "64",
                         "--count", "3", "--noise-sigma", "10",
                         "--texture", "field", "--out", str(seq)]) == 0
        texts = []
        for schedule in (codec.dependency_levels,
                         lambda nx, ny, needs: [[i] for i in sorted(needs)]):
            monkeypatch.setattr(codec, "dependency_levels", schedule)
            out = tmp_path / f"rd{len(texts)}.csv"
            assert cli.main(["encode", "--input", str(seq), "--width", "96",
                             "--height", "64", "--block-size", block,
                             "--qps", "28", "--algorithms", "none,msa",
                             "--search-range", "8",
                             "--out-csv", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]
        assert b"msa," in texts[0]

    def test_encode_rejects_jobs(self, seq_path, tmp_path, capsys):
        # there is no thread pool, so `jobs` is not a config key
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nwidth = 64\nheight = 64\nqps = 28, 34\n"
                       f"algorithms = none\njobs = 2\ninput = {seq_path}\n")
        rd = tmp_path / "rd.csv"
        rc = cli.main(["encode", "--config", str(ini), "--out-csv", str(rd)])
        assert rc == 2
        assert "unknown config key 'jobs'" in capsys.readouterr().err
        assert not rd.exists()


class TestDemoScript:
    def test_runs_every_stage(self, tmp_path, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
        demo = runpy.run_path(str(script))
        out = tmp_path / "demo"
        rc = demo["main"](["--outdir", str(out), "--width", "32",
                           "--height", "32", "--frames", "3",
                           "--algorithms", "none,msa",
                           "--qps", "22,28,34,40"])
        assert rc == 0
        headers = {
            "predict.csv": "algorithm,frame,psnr_mc_db,psnr_pred_db,"
                           "refined_fraction,side_bits",
            "rd.csv": "algorithm,qp,qstep,rate_kbps,psnr_db,refined_fraction",
            "timing.txt": "mean refinement time per frame (wall clock, "
                          "excluded from CSVs)",
            "summary.txt": "Bjontegaard means over the quantizer ladder "
                           "(proxy rates, luma PSNR):",
        }
        for name, header in headers.items():
            assert (out / name).read_text().splitlines()[0] == header


class TestSynthCommand:
    def test_reports_bytes(self, tmp_path, capsys):
        out = tmp_path / "s.yuv"
        rc = cli.main(["synth", "--width", "32", "--height", "32",
                       "--count", "2", "--out", str(out)])
        assert rc == 0
        assert out.stat().st_size == 2 * 32 * 32 * 3 // 2
        assert "wrote 2 frames" in capsys.readouterr().out

    def test_kinds(self, tmp_path):
        for kind in ("translate", "zoom-texture", "noise"):
            out = tmp_path / f"{kind}.yuv"
            assert cli.main(["synth", "--kind", kind, "--width", "32",
                             "--height", "32", "--count", "2",
                             "--out", str(out)]) == 0
            assert out.stat().st_size == 2 * 32 * 32 * 3 // 2

    @pytest.mark.parametrize("kind, option", [
        ("noise", ["--texture", "plasma"]),
        ("noise", ["--texture", "field"]),
        ("noise", ["--velocity-y", "1"]),
        ("noise", ["--velocity-x", "0"]),
        ("noise", ["--noise-sigma", "4"]),
        ("zoom-texture", ["--texture", "field"]),
        ("zoom-texture", ["--noise-sigma", "4"]),
        ("zoom-texture", ["--velocity-x", "1"]),
        ("translate", ["--zoom-rate", "0.01"]),
    ])
    def test_option_the_kind_does_not_use(self, kind, option, tmp_path,
                                          capsys):
        out = tmp_path / "s.yuv"
        rc = cli.main(["synth", "--kind", kind, "--width", "32", "--height",
                       "32", "--count", "2", *option, "--out", str(out)])
        assert rc == 2
        assert f"sequence kind {kind!r} does not use" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_options_the_kind_uses(self, tmp_path):
        for kind, option in (("translate", ["--velocity-x", "1",
                                            "--texture", "field"]),
                             ("zoom-texture", ["--zoom-rate", "0.01"])):
            out = tmp_path / f"{kind}.yuv"
            assert cli.main(["synth", "--kind", kind, "--width", "32",
                             "--height", "32", "--count", "2", *option,
                             "--out", str(out)]) == 0
            assert out.stat().st_size == 2 * 32 * 32 * 3 // 2

    @pytest.mark.parametrize("dims", [("0", "32"), ("33", "32")])
    def test_unreadable_geometry(self, dims, tmp_path, capsys):
        out = tmp_path / "s.yuv"
        rc = cli.main(["synth", "--width", dims[0], "--height", dims[1],
                       "--count", "2", "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestRunConfigObject:
    def test_validate_returns_self(self):
        cfg = RunConfig(width=64, height=64)
        assert cfg.validate() is cfg

    def test_frames_lower_bound(self):
        with pytest.raises(ConfigError):
            RunConfig(frames=1).validate()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_defaults_match_library_types(self, algorithm):
        assert RunConfig().encoder_config(algorithm) \
            == EncoderConfig(refinement=algorithm)
