import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bridgelab
from bridgelab import simulate
from bridgelab.cli import main, run_figures_preset
from bridgelab.drift import DriftSpec
from bridgelab.holder_analysis import space_modulus, time_modulus
from bridgelab.local_time import kernel_estimate
from bridgelab.reporting import read_csv
from bridgelab.simulate import euler_path, exact_path
from bridgelab.verification import HOLDER_SPACE_BAND, HOLDER_TIME_BAND


def run(args):
    return main([str(a) for a in args])


class TestFiguresPreset:
    def test_figure1_artifacts(self, tmp_path):
        assert run(["figures", "--which", "figure1", "--out", tmp_path, "--seed", "0"]) == 0
        for beta in (0.8, 2.0):
            header, rows, _ = read_csv(tmp_path / f"figure1_beta_{beta}.csv")
            assert header == ["t", "x"]
            assert rows[0] == (0.0, 0.0)
            assert rows[1][0] - rows[0][0] == pytest.approx(0.01, abs=1e-15)
        report = json.loads((tmp_path / "figure1_report.json").read_text())
        assert all(report["pass_flags"].values())

    def test_figure2_step_and_families(self, tmp_path):
        assert run(["figures", "--which", "figure2", "--out", tmp_path]) == 0
        for beta in (0.5, 1.5):
            _, rows, _ = read_csv(tmp_path / f"figure2_beta_{beta}.csv")
            assert rows[1][0] - rows[0][0] == pytest.approx(0.005, abs=1e-15)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_figures_preset("figure1", seed=3, outputs=a)
        run_figures_preset("figure1", seed=3, outputs=b)
        for beta in (0.8, 2.0):
            name = f"figure1_beta_{beta}.csv"
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSimulateCommand:
    def test_single_path_with_increments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drift.family = power\ndrift.beta = 0.8\nT = 1\nh = 0.01\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        header, rows, _ = read_csv(tmp_path / "path_0000.csv")
        assert header == ["t", "x", "dw"]
        assert rows[0][1] == 0.0
        assert (tmp_path / "simulate_report.json").exists()

    def test_threads_do_not_change_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulate, "_SERIAL_STEPS", 0)  # let the 200-step walk use the threads
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "drift.family = power\ndrift.beta = 0.8\nT = 2\nh = 0.01\nn_paths = 150\nscheme = exact\n"
        )
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert run(["simulate", "--config", cfg, "--out", out1, "--threads", 1]) == 0
        assert run(["simulate", "--config", cfg, "--out", out2, "--threads", 3]) == 0
        assert (out1 / "terminal_stats.csv").read_bytes() == (out2 / "terminal_stats.csv").read_bytes()
        assert (out1 / "path_0000.csv").read_bytes() == (out2 / "path_0000.csv").read_bytes()

    def test_default_threads_write_the_csvs_of_one_thread(self, tmp_path, monkeypatch):
        # without --threads the batch runs on every core; 5000 paths are 20 tasks of at most 256
        monkeypatch.setattr(simulate, "_SERIAL_STEPS", 0)  # let the 20-step walk use the threads
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drift.family = power\ndrift.beta = 0.8\nT = 1\nh = 0.05\nn_paths = 5000\n")
        out1, out_default = tmp_path / "t1", tmp_path / "default"
        assert run(["simulate", "--config", cfg, "--out", out1, "--threads", 1]) == 0
        assert run(["simulate", "--config", cfg, "--out", out_default]) == 0
        names = sorted(p.name for p in out1.glob("*.csv"))
        assert "terminal_stats.csv" in names
        assert names == sorted(p.name for p in out_default.glob("*.csv"))
        for name in names:
            assert (out1 / name).read_bytes() == (out_default / name).read_bytes()


class TestLawCommand:
    def test_covariance_artifact_and_sandwich(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("drift.family = power\ndrift.beta = 1\nlaw.times = 1,2,3\n")
        assert run(["law", "--config", cfg, "--out", tmp_path]) == 0
        header, rows, _ = read_csv(tmp_path / "covariance.csv")
        assert header == ["s", "t", "cov"]
        assert len(rows) == 9
        report = json.loads((tmp_path / "law_report.json").read_text())
        assert report["pass_flags"]["det_sandwich"]
        assert report["metrics"]["det_conditioning"] == pytest.approx(
            report["metrics"]["det_lu"], rel=1e-8
        )


class TestLocaltimeCommand:
    def test_three_estimator_artifacts(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "drift.family = power\ndrift.beta = 0.8\nT = 1\nh = 0.001\n"
            "localtime.eps_ladder = 0.01,0.001\nlocaltime.x = 0\n"
        )
        assert run(["localtime", "--config", cfg, "--out", tmp_path]) == 0
        names = sorted(os.listdir(tmp_path))
        assert "localtime_binned.csv" in names
        assert "localtime_tanaka.csv" in names
        kernel_files = [n for n in names if n.startswith("localtime_kernel_")]
        assert len(kernel_files) == 2
        _, _, preamble = read_csv(tmp_path / "localtime_binned.csv")
        assert "estimator=binned" in preamble[0]


class TestHolderCommand:
    def test_profiles_emitted(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "drift.family = power\ndrift.beta = 0.8\nT = 1\nh = 0.0009765625\nn_paths = 4\n"
        )
        assert run(["holder", "--config", cfg, "--out", tmp_path]) == 0
        header, rows, _ = read_csv(tmp_path / "holder_time_profile.csv")
        assert header == ["scale", "sup_increment"]
        assert len(rows) >= 3
        report = json.loads((tmp_path / "holder_report.json").read_text())
        assert "time_slope" in report["metrics"]
        assert "space_slope" in report["metrics"]
        m = report["metrics"]
        assert (m["time_band_low"], m["time_band_high"]) == HOLDER_TIME_BAND
        assert (m["space_band_low"], m["space_band_high"]) == HOLDER_SPACE_BAND

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_profiles_follow_the_scheme(self, tmp_path, scheme):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"drift.family = power\ndrift.beta = 0.8\nscheme = {scheme}\nT = 1\nh = 0.0009765625\nn_paths = 4\nseed = 3\n")
        assert run(["holder", "--config", cfg, "--out", tmp_path]) == 0
        spec, h = DriftSpec.power(0.8), 2.0**-10
        path = (euler_path if scheme == "euler" else exact_path)(spec, 1.0, h, seed=3)
        time_profile = time_modulus(kernel_estimate(path, 0.0, h, path.times), h * 2.0 ** np.arange(2, 8))
        space_profile = space_modulus(spec, 1.0, np.linspace(-1, 1, 257), 4, h, 3, h, scheme=scheme)
        for name, profile in (("time", time_profile), ("space", space_profile)):
            _, rows, _ = read_csv(tmp_path / f"holder_{name}_profile.csv")
            assert [r[1] for r in rows] == list(profile.sup_increments)


class TestVerifyCommand:
    def test_subset_run_exits_zero(self, tmp_path, capsys):
        assert run(["verify", "--out", tmp_path, "--checks", "laplace_asymptotic"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["metrics"]["laplace_ratio_beta2_t10"] == pytest.approx(0.5, rel=0.05)

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("h = 0\n")
        assert run(["verify", "--config", cfg]) == 2

    @pytest.mark.parametrize("checks", ["bogus", "law_agreement,figure"])
    def test_unknown_check_exits_two_naming_it(self, tmp_path, capsys, checks):
        # these ran nothing (or skipped the misspelt name) and exited 0
        assert run(["verify", "--out", tmp_path, "--checks", checks]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: unknown checks {checks.split(',')[-1]}; choose from ")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("drift.family = power\ndrift.beta = 1\ndrift.scale = -1\n", "drift.scale"),
            ("drift.family = constant\ndrift.scale = -1\n", "drift.scale"),
            ("drift.family = tabulated\ndrift.table = {table}\n", "drift.table"),
            ("drift.family = power\nholder.r = 0\n", "holder.r"),
            ("drift.family = power\nholder.r = -1\n", "holder.r"),
            ("drift.family = power\nlocaltime.delta = 0\n", "localtime.delta"),
            ("drift.family = power\nlocaltime.eps_ladder = 0.01,0\n", "localtime.eps_ladder"),
        ],
        ids=["power_scale", "constant_scale", "nan_table", "zero_r", "negative_r", "zero_delta", "zero_eps"],
    )
    def test_bad_drift_exits_two_naming_the_key(self, tmp_path, capsys, text, key):
        # these ended in a DomainError traceback, or (the NaN table row) in a NumericsError after 200 bisections;
        # the holder and localtime rows exited 3 with a library message that named no key
        table = tmp_path / "table.csv"
        table.write_text("time,alpha\n0.0,1.0\n1.0,nan\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.format(table=table))
        assert run(["law", "--config", cfg, "--out", tmp_path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_package_error_in_a_run_exits_three(self, tmp_path, capsys):
        # the exact table's A overflows past t ~ 1419; this escaped main as a traceback and exit 1, and
        # then printed three numpy RuntimeWarnings before its error line
        cfg = tmp_path / "far.cfg"
        cfg.write_text("drift.family = exponential\ndrift.beta = 0.5\nscheme = exact\nT = 1500\nh = 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: A(t) overflows to inf at t=1419.0"]
        assert not (tmp_path / "simulate_report.json").exists()


class TestThreadsFlag:
    @pytest.mark.parametrize("command", ["law", "localtime", "figures", "verify"])
    def test_rejected_where_it_does_nothing(self, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--threads", 2])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "holder"])
    def test_below_one_exits_two(self, command, tmp_path):
        assert run([command, "--out", tmp_path, "--threads", 0]) == 2


class TestEnvironmentDefaults:
    def test_output_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BRIDGELAB_OUT", str(tmp_path / "envout"))
        assert run(["figures", "--which", "figure1"]) == 0
        assert (tmp_path / "envout" / "figure1_report.json").exists()


class TestImportGraph:
    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests as a reference only
        src = str(Path(bridgelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import bridgelab, sys; assert not any(m.startswith('scipy') for m in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
