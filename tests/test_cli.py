"""Command-line surface: config parsing, determinism, output formats, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from twoatom_cbs.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_OK,
    build_config,
    main,
    read_config_file,
    read_output_header,
)
from twoatom_cbs.liouvillian import ConfigurationError


class TestConfigParsing:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rabi = 2.5\n# a comment\ndetuning = 1  # inline\nnormalize = true\n")
        values = read_config_file(path)
        assert values == {"rabi": 2.5, "detuning": 1, "normalize": True}

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rabi 2.5\n")
        with pytest.raises(ConfigurationError):
            read_config_file(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            build_config("spectrum", {"rabbi": 1.0}, {})

    def test_mode_key_cross_check(self):
        with pytest.raises(ConfigurationError, match="mode"):
            build_config("spectrum", {"mode": "cone"}, {})

    def test_overrides_beat_file(self):
        cfg = build_config("spectrum", {"rabi": 1.0}, {"rabi": 3.0})
        assert cfg["rabi"] == 3.0

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config("spectrum", {"format": "xml"}, {})


class TestRuns:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_spectrum_deterministic_bytes(self, capsys):
        argv = ["spectrum", "--rabi", "0.1", "--points", "21",
                "--nu-min", "-3", "--nu-max", "3"]
        code_a, out_a = self.run(argv, capsys)
        code_b, out_b = self.run(argv, capsys)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert out_a.startswith("# mode = spectrum")

    def test_json_mirrors_csv(self, capsys):
        base = ["spectrum", "--rabi", "0.2", "--points", "11",
                "--nu-min", "-2", "--nu-max", "2"]
        _, csv_out = self.run(base, capsys)
        _, json_out = self.run(base + ["--format", "json"], capsys)
        doc = json.loads(json_out)
        assert doc["columns"] == ["nu", "ladder", "crossed"]
        data_lines = [l for l in csv_out.splitlines() if not l.startswith("#")]
        assert len(doc["rows"]) == len(data_lines) - 1  # minus column header
        first_csv = [float(tok) for tok in data_lines[1].split(",")]
        assert np.allclose(doc["rows"][0], first_csv)

    def test_reproducible_from_own_header(self, tmp_path, capsys):
        out_path = tmp_path / "a.csv"
        argv = ["spectrum", "--rabi", "0.15", "--points", "11", "--nu-min", "-2",
                "--nu-max", "2", "--output", str(out_path)]
        assert main(argv) == EXIT_OK
        header = read_output_header(out_path)
        cfg_path = tmp_path / "replay.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in header.items()))
        replay_path = tmp_path / "b.csv"
        assert main(["spectrum", "--config", str(cfg_path),
                     "--output", str(replay_path)]) == EXIT_OK
        assert out_path.read_bytes() == replay_path.read_bytes()

    def test_intensity_sweep_columns(self, capsys):
        code, out = self.run(["intensity-sweep", "--sweep-min", "1",
                              "--sweep-max", "4", "--sweep-points", "3",
                              "--detuning", "20"], capsys)
        assert code == EXIT_OK
        header_line = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header_line == "rabi,detuning,L_el,C_el,L_inel,C_inel,alpha"

    def test_compare_oracles_reports_tiny_errors(self, capsys):
        code, out = self.run(["compare-oracles", "--s-values", "0.5,5"], capsys)
        assert code == EXIT_OK
        header = {k.strip(): v for k, v in
                  (l.lstrip("#").split("=", 1) for l in out.splitlines()
                   if l.startswith("#") and "=" in l)}
        assert float(header["max_alpha_rel_err"]) < 1e-6

    def test_cone_profile_decreases(self, capsys):
        code, out = self.run(["cone", "--rabi", "0.5", "--theta-max", "0.005",
                              "--theta-points", "5"], capsys)
        assert code == EXIT_OK
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        contrast = [float(r.split(",")[1]) for r in rows]
        assert contrast == sorted(contrast, reverse=True)


class TestExitCodes:
    def test_invalid_grid(self, capsys):
        assert main(["spectrum", "--nu-min", "5", "--nu-max", "-5"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent.cfg"]) == EXIT_CONFIG

    def test_bad_s_values(self, capsys):
        assert main(["compare-oracles", "--s-values", "1,banana"]) == EXIT_CONFIG

    def test_unknown_file_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("rabbi = 1.0\n")
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG

    def test_non_finite_rabi(self, capsys):
        assert main(["spectrum", "--rabi", "nan"]) == EXIT_CONFIG
        assert "configuration error: rabi must be finite" in capsys.readouterr().err


def test_closed_pipe_ends_without_traceback():
    # `twoatom-cbs spectrum | head -1`: the reader leaves after one line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "twoatom_cbs", "spectrum", "--points", "4001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert first.startswith(b"# mode = spectrum")
    assert stderr == ""
