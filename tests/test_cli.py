"""Command-line surface: config parsing, determinism, output formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twoatom_cbs import cli
from twoatom_cbs.cli import (
    _MODES,
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_config,
    build_parser,
    main,
    read_config_file,
    read_output_header,
)
from twoatom_cbs.liouvillian import ConfigurationError

#: per mode, small inputs with a non-default value for every key it echoes
NON_DEFAULT_ARGS = {
    "spectrum": ["--rabi", "0.15", "--detuning", "0.3", "--k0-r12", "80",
                 "--nu-min", "-12", "--nu-max", "12", "--points", "121", "--normalize",
                 "--seed", "3"],
    "intensity-sweep": ["--detuning", "2", "--k0-r12", "80", "--sweep-min", "0.5",
                        "--sweep-max", "3", "--sweep-points", "3",
                        "--sweep-scale", "linear", "--seed", "4"],
    "compare-oracles": ["--k0-r12", "80", "--s-values", "0.5,2", "--seed", "5"],
    "cone": ["--rabi", "0.5", "--detuning", "1", "--k0-r12", "80", "--k-ell", "50",
             "--theta-max", "0.01", "--theta-points", "5", "--mc-samples", "100",
             "--seed", "6"],
}

#: per mode, further inputs whose header must replay byte for byte
EXTRA_REPLAY_ARGS = {
    # the benchmark's widest (0.1, 5) spectrum: grid limits that need 17 digits
    "spectrum": ["--rabi", "0.1", "--detuning", "5", "--k0-r12", "100",
                 "--nu-min", "-22.502499750049985", "--nu-max", "22.502499750049985",
                 "--points", "181", "--normalize"],
}


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
        argv = ["spectrum", "--rabi", "0.1", "--points", "81",
                "--nu-min", "-10", "--nu-max", "10"]
        code_a, out_a = self.run(argv, capsys)
        code_b, out_b = self.run(argv, capsys)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert out_a.startswith("# mode = spectrum")

    def test_json_mirrors_csv(self, capsys):
        base = ["spectrum", "--rabi", "0.2", "--points", "81",
                "--nu-min", "-10", "--nu-max", "10"]
        _, csv_out = self.run(base, capsys)
        _, json_out = self.run(base + ["--format", "json"], capsys)
        doc = json.loads(json_out)
        assert doc["columns"] == ["nu", "ladder", "crossed"]
        data_lines = [l for l in csv_out.splitlines() if not l.startswith("#")]
        assert len(doc["rows"]) == len(data_lines) - 1  # minus column header
        first_csv = [float(tok) for tok in data_lines[1].split(",")]
        assert np.allclose(doc["rows"][0], first_csv)

    @pytest.mark.parametrize("mode", list(NON_DEFAULT_ARGS))
    def test_reproducible_from_own_header(self, mode, tmp_path, capsys):
        headers = []
        runs = [("default", []), ("set", NON_DEFAULT_ARGS[mode])]
        if mode in EXTRA_REPLAY_ARGS:
            runs.append(("extra", EXTRA_REPLAY_ARGS[mode]))
        for name, args in runs:
            out_path = tmp_path / f"{name}.csv"
            assert main([mode, *args, "--output", str(out_path)]) == EXIT_OK
            header = read_output_header(out_path)
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in header.items()))
            replay_path = tmp_path / f"{name}-replay.csv"
            assert main([mode, "--config", str(cfg_path),
                         "--output", str(replay_path)]) == EXIT_OK
            assert out_path.read_bytes() == replay_path.read_bytes()
            headers.append(header)
        default, changed = headers[:2]
        echoed = set(changed) - {"mode", "version", *_MODES[mode].results}
        assert all(default[k] != changed[k] for k in echoed)

    @pytest.mark.parametrize("mode", list(NON_DEFAULT_ARGS))
    def test_flags_are_the_echoed_keys(self, mode, tmp_path):
        out_path = tmp_path / "a.csv"
        assert main([mode, *NON_DEFAULT_ARGS[mode], "--output", str(out_path)]) == EXIT_OK
        header = read_output_header(out_path)
        echoed = set(header) - {"mode", "version", *_MODES[mode].results}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {flag for action in subparsers.choices[mode]._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        expected = echoed | {"format", "output", "config"}
        assert flags == {"--" + key.replace("_", "-") for key in expected}

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

    def test_cone_default_inside_validity_range(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = self.run(["cone"], capsys)
        assert code == EXIT_OK


class TestExitCodes:
    def test_invalid_grid(self, capsys):
        assert main(["spectrum", "--nu-min", "5", "--nu-max", "-5"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--points", "1"], ["--nu-min", "5", "--nu-max", "-5"],
                                      ["--nu-min", "2", "--nu-max", "2"]])
    def test_invalid_grid_rejected_before_assembly(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("assembled before the grid was checked")

        monkeypatch.setattr(cli, "assemble", refuse)
        assert main(["spectrum"] + argv) == EXIT_CONFIG
        assert "nu_min < nu_max and points >= 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("mode", ["spectrum", "cone"])
    def test_zero_rabi(self, mode, capsys):
        # an undriven pair scatters nothing: a configuration error, not a
        # numerical failure of the intensities
        assert main([mode, "--rabi", "0"]) == EXIT_CONFIG
        assert "configuration error: rabi must be positive" in capsys.readouterr().err

    def test_open_sum_rule(self, capsys):
        # the grid cuts off the Omega = 100 sidebands: 17% of L_inel integrates
        argv = ["spectrum", "--rabi", "100", "--nu-min", "-10", "--nu-max", "10",
                "--points", "101"]
        assert main(argv) == EXIT_NUMERICAL
        assert "numerical failure: sum rule violated" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--points", "abc"], "invalid int value: 'abc'"),
        (["compare-oracles", "--rabi", "7"], "unrecognized arguments: --rabi 7"),
        (["intensity-sweep", "--rabi", "7"], "unrecognized arguments: --rabi 7"),
        (["compare-oracles", "--detuning", "3"], "unrecognized arguments: --detuning 3"),
    ])
    def test_usage_error(self, argv, message, capsys):
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--version"], ["spectrum", "--help"]])
    def test_help_and_version(self, argv, capsys):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out

    @pytest.mark.parametrize("line", ["rabi = fast", "points = 2.5", "normalize = 1"])
    def test_malformed_file_value(self, line, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        assert "is not a valid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cone", "--k0-r12", "-100"],
        ["cone", "--k0-r12", "0"],
        ["cone", "--mc-samples", "-5"],
        ["cone", "--k-ell", "nan", "--mc-samples", "0"],
        ["cone", "--k-ell", "-5", "--mc-samples", "0"],
        ["cone", "--k-ell", "inf", "--mc-samples", "10"],
        # |r12| overflows although both positions are finite
        ["intensity-sweep", "--k0-r12", "1e300"],
    ])
    def test_out_of_range(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_unwritable_output(self, capsys):
        argv = ["compare-oracles", "--s-values", "1", "--output", "/nonexistent/x.csv"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and err.count("\n") == 1


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


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a spectrum and an intensity sweep
    # must not import any part of it
    code = (
        "import sys\n"
        "from twoatom_cbs import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['spectrum', '--points', '81', '--output', out + '/s.csv']) == 0\n"
        "assert cli.main(['intensity-sweep', '--sweep-points', '3',"
        " '--output', out + '/i.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
