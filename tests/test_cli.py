import numpy as np
import pytest

from mcrefine import cli
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

    def test_bad_config_value(self, seq_path, capsys):
        rc = cli.main(["predict", "--input", str(seq_path), "--width", "64",
                       "--height", "64", "--algorithms", "none,warp"])
        assert rc == 2
        assert "unknown algorithm" in capsys.readouterr().err

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

    def test_bd_missing_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("rate,quality\n100,30\n")
        rc = cli.main(["bd", "--anchor", str(bad), "--test", str(bad)])
        assert rc == 2


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
