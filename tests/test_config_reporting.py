import json
import math
import re

import numpy as np
import pytest

from bridgelab.config import config_digest, parse_config, to_text
from bridgelab.errors import ConfigError
from bridgelab.reporting import ReportSummary, emit_csv, fmt_float, read_csv

MINIMAL = "drift.family = power\ndrift.beta = 2\nT = 10\nh = 0.01\n"


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.seed == 0
        assert cfg.n_paths == 1
        assert cfg.scheme == "euler"
        assert cfg.drift_spec().family == "power"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n" + MINIMAL)
        assert cfg.T == 10.0

    def test_zero_step_names_key(self):
        with pytest.raises(ConfigError, match="h"):
            parse_config("drift.family = power\ndrift.beta = 2\nh = 0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="drift.gamma"):
            parse_config(MINIMAL + "drift.gamma = 1\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="n_paths"):
            parse_config(MINIMAL + "n_paths = many\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "T = 11\n")

    def test_missing_family_rejected(self):
        with pytest.raises(ConfigError, match="drift.family"):
            parse_config("T = 10\nh = 0.01\n")

    def test_beta_required_for_power(self):
        with pytest.raises(ConfigError, match="drift.beta"):
            parse_config("drift.family = power\n")

    def test_float_lists(self):
        cfg = parse_config(MINIMAL + "law.times = 1, 2, 3.5\n")
        assert cfg.law_times == (1.0, 2.0, 3.5)

    @pytest.mark.parametrize(
        "key, raw",
        [("h", "nan"), ("T", "inf"), ("drift.scale", "-inf"), ("localtime.x", "nan"), ("holder.r", "inf")],
    )
    def test_non_finite_float_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be a finite number"):
            parse_config(f"drift.family = power\ndrift.beta = 2\n{key} = {raw}\n")

    @pytest.mark.parametrize(
        "key, raw", [("law.times", "1,nan"), ("simulate.horizons", "inf"), ("localtime.eps_ladder", "0.1,-inf")]
    )
    def test_non_finite_list_entry_names_key(self, key, raw):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be a finite number"):
            parse_config(MINIMAL + f"{key} = {raw}\n")

    def test_roundtrip_lossless(self):
        cfg = parse_config(
            MINIMAL
            + "seed = 77\nn_paths = 12\nscheme = exact\nlocaltime.eps_ladder = 0.1,0.01\n"
            + "holder.r = 0.725\noutputs = somewhere\n"
        )
        assert parse_config(to_text(cfg)) == cfg

    def test_digest_changes_iff_fields_change(self):
        cfg = parse_config(MINIMAL)
        same = parse_config(MINIMAL)
        assert config_digest(cfg) == config_digest(same)
        for mutated in (
            parse_config(MINIMAL.replace("T = 10", "T = 11")),
            parse_config(MINIMAL + "seed = 1\n"),
            parse_config(MINIMAL.replace("drift.beta = 2", "drift.beta = 2.5")),
        ):
            assert config_digest(mutated) != config_digest(cfg)

    def test_tabulated_table_from_csv(self, tmp_path):
        table = tmp_path / "alpha.csv"
        emit_csv([(0.0, 1.0), (1.0, 4.0), (2.0, 2.0)], ("time", "alpha"), table)
        cfg = parse_config(f"drift.family = tabulated\ndrift.table = {table}\n")
        spec = cfg.drift_spec()
        assert spec.family == "tabulated"
        assert spec.table[1] == (1.0, 4.0)

    def test_tabulated_without_table_rejected(self):
        with pytest.raises(ConfigError, match="drift.table"):
            parse_config("drift.family = tabulated\n")


class TestEmitCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], ("t", "x"), path)
        assert path.read_bytes() == b"t,x\n"

    def test_single_row_exact_bytes(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([(1.0, 0.5)], ("t", "x"), path)
        assert path.read_bytes() == b"t,x\n1.0,0.5\n"

    def test_roundtrip_is_exact_for_doubles(self, tmp_path):
        rows = [
            (0.1, 1e-17),
            (-2.75, math.pi),
            (1.0000000000000002, 3e300),
            (float(np.float64(1) / 3), -0.0),
        ]
        path = tmp_path / "rt.csv"
        emit_csv(rows, ("a", "b"), path)
        header, back, _ = read_csv(path)
        assert header == ["a", "b"]
        assert back == rows

    def test_lf_endings_and_no_crlf(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([(1.0, 2.0), (3.0, 4.0)], ("t", "x"), path)
        assert b"\r" not in path.read_bytes()

    def test_preamble_round_trip(self, tmp_path):
        path = tmp_path / "meta.csv"
        emit_csv([(1.0, 2.0)], ("t", "L"), path, preamble=["estimator=kernel"])
        header, rows, preamble = read_csv(path)
        assert preamble == ["estimator=kernel"]
        assert header == ["t", "L"]

    def test_schema_mismatch_rejected(self, tmp_path):
        with pytest.raises(Exception):
            emit_csv([(1.0,)], ("t", "x"), tmp_path / "bad.csv")


class TestFmtFloat:
    @pytest.mark.parametrize("x", [0.1, 1e300, 5e-324, -1.5, 2.0, 1 / 3])
    def test_shortest_roundtrip(self, x):
        assert float(fmt_float(x)) == x


class TestReportSummary:
    def test_json_roundtrip_and_all_passed(self, tmp_path):
        summary = ReportSummary(
            command="law",
            config_digest="abc",
            metrics={"det": 1.5},
            pass_flags={"ok": True, "also": True},
            wall_time=0.25,
        )
        assert summary.all_passed
        path = summary.write(tmp_path)
        payload = json.loads(open(path).read())
        assert payload["command"] == "law"
        assert payload["metrics"]["det"] == 1.5
        summary.pass_flags["bad"] = False
        assert not summary.all_passed
