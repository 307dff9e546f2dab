"""Command-line surface: config parsing, determinism, output formats, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

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
)
from twoatom_cbs.liouvillian import ConfigurationError

#: per mode, small inputs with a non-default value for every key it echoes
NON_DEFAULT_ARGS = {
    "spectrum": ["--rabi", "0.15", "--detuning", "0.3", "--k0-r12", "80",
                 "--nu-min", "-12", "--nu-max", "12", "--points", "121", "--normalize"],
    "intensity-sweep": ["--detuning", "2", "--k0-r12", "80", "--sweep-min", "0.5",
                        "--sweep-max", "3", "--sweep-points", "3",
                        "--sweep-scale", "linear"],
    "compare-oracles": ["--k0-r12", "80", "--s-values", "0.5,2"],
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


@pytest.fixture
def echo_only(monkeypatch):
    """Every mode's runner computes nothing, so its header echoes the parsed
    configuration alone."""
    for mode, spec in _MODES.items():
        monkeypatch.setitem(_MODES, mode, spec._replace(run=lambda cfg: ({}, ("x",), ())))


class TestConfigParsing:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rabi = 2.5\n# a comment\ndetuning = 1  # inline\nnormalize = true\n")
        values = read_config_file(path)
        assert values == {"rabi": "2.5", "detuning": "1", "normalize": "true"}

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # the second value does not silently win: one line naming both lines
        path = tmp_path / "run.cfg"
        path.write_text("s_values = 0.5\n# s = 2 instead\ns_values = 2\n")
        with pytest.raises(ConfigurationError, match=r"run.cfg:3: key 's_values' is already "
                                                     r"given on line 1"):
            read_config_file(path)
        assert main(["compare-oracles", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "line 1" in err

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # '#' starts a comment only at the start of a line or after
        # whitespace: the output path keeps it
        path = tmp_path / "run.cfg"
        target = tmp_path / "run#1.csv"
        path.write_text(f"points = 81 # inline\noutput = {target}\n#points = 12\n")
        assert read_config_file(path) == {"points": "81", "output": str(target)}
        assert main(["spectrum", "--config", str(path)]) == EXIT_OK
        assert target.read_text().startswith("# mode = spectrum\n")
        assert not (tmp_path / "run").exists()

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
        cfg = build_config("spectrum", {"rabi": "1.0"}, {"rabi": "3.0"})
        assert cfg["rabi"] == 3.0

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config("spectrum", {"format": "xml"}, {})

    @pytest.mark.parametrize("mode, key, text, expected", [
        ("spectrum", "points", "801", "# points = 801"),
        ("spectrum", "points", "801.0", "configuration error: points = '801.0' is not a valid int"),
        ("spectrum", "points", "1e3", "configuration error: points = '1e3' is not a valid int"),
        ("spectrum", "points", "2.5", "configuration error: points = '2.5' is not a valid int"),
        ("spectrum", "points", "abc", "configuration error: points = 'abc' is not a valid int"),
        ("spectrum", "format", "xml",
         "configuration error: format = 'xml' is not one of ('csv', 'json')"),
        ("compare-oracles", "s_values", "0.5,2", "# s_values = 0.5,2.0"),
        ("compare-oracles", "s_values", "1,inf", "configuration error: s_values must be finite"),
    ])
    def test_flags_and_files_agree(self, mode, key, text, expected, echo_only, tmp_path,
                                   capsys):
        # one text, once as `--flag=text` and once as a config line: the
        # same value in the header, or the same one-line error
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        flag = "--" + key.replace("_", "-")
        outcomes = [(main(argv), *capsys.readouterr())
                    for argv in ([mode, f"{flag}={text}"], [mode, "--config", str(path)])]
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        if expected.startswith("#"):
            assert code == EXIT_OK and err == "" and expected + "\n" in out
        else:
            assert code == EXIT_CONFIG and out == "" and err == expected + "\n"

    @pytest.mark.parametrize("text, expected", [
        ("true", "# normalize = True"),
        ("True", "# normalize = True"),
        ("1", "configuration error: normalize = '1' is not a valid bool"),
        ("yes", "configuration error: normalize = 'yes' is not a valid bool"),
    ])
    def test_bool_flag_and_file_agree(self, text, expected, echo_only, tmp_path, capsys):
        # the bare flag stores the text `true`, which a config line may spell
        path = tmp_path / "run.cfg"
        path.write_text(f"normalize = {text}\n")
        code = main(["spectrum", "--config", str(path)])
        out, err = capsys.readouterr()
        if expected.startswith("#"):
            assert code == EXIT_OK and expected + "\n" in out
            assert main(["spectrum", "--normalize"]) == EXIT_OK
            assert capsys.readouterr() == (out, "")
        else:
            assert code == EXIT_CONFIG and out == "" and err == expected + "\n"


def replay_config(out_path, cfg_path):
    """The README's replay: the header lines of a CSV output, '# ' stripped,
    written to `cfg_path` and read back as a config file."""
    lines = [line[2:] for line in out_path.read_text().splitlines(keepends=True)
             if line.startswith("# ")]
    cfg_path.write_text("".join(lines))
    return read_config_file(cfg_path)


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

    def test_rows_are_written_value_by_value(self):
        # the row-at-a-time format writes the bytes of a per-value f"{x:.15g}"
        # join, across +-300 decades and at the edge values
        rng = np.random.default_rng(0)
        values = rng.uniform(-10.0, 10.0, 49_999) * 10.0 ** rng.integers(-300, 301, 49_999)
        edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max]
        rows = np.concatenate([values, edges]).reshape(-1, 3)
        stream = io.StringIO()
        cli._emit("csv", {}, ("a", "b", "c"), rows, stream)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1:] == [",".join(f"{x:.15g}" for x in row) for row in rows]
        stream = io.StringIO()
        cli._emit("json", {}, ("a", "b", "c"), rows, stream)
        assert stream.getvalue() == json.dumps(
            {"metadata": {}, "columns": ["a", "b", "c"],
             "rows": [[float(x) for x in row] for row in rows]}, indent=2) + "\n"

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
        # metadata holds native values, each float equal to the CSV header's
        oracles = ["compare-oracles", "--s-values", "0.5,2"]
        for argv, csv_out in ((base, csv_out), (oracles, self.run(oracles, capsys)[1])):
            meta = json.loads(self.run(argv + ["--format", "json"], capsys)[1])["metadata"]
            header = dict(l[2:].split(" = ", 1) for l in csv_out.splitlines()
                          if l.startswith("# "))
            assert list(meta) == list(header)
            for key, value in meta.items():
                if key in ("mode", "version"):
                    assert value == header[key]
                elif key == "s_values":
                    assert value == [0.5, 2.0] and header[key] == "0.5,2.0"
                elif key == "points":
                    assert type(value) is int and value == int(header[key])
                elif key == "normalize":
                    assert value is False and header[key] == "False"
                else:
                    assert type(value) is float and value == float(header[key]), key

    def test_normalize_divides_the_output_by_the_ladder_intensity(self, capsys):
        # --normalize writes the raw run's densities, elastic weight and
        # integrals divided by L_inel, and nothing else changes
        argv = ["spectrum", "--rabi", "0.1", "--nu-min", "-25", "--nu-max", "25",
                "--points", "1201", "--format", "json"]
        raw = json.loads(self.run(argv, capsys)[1])
        norm = json.loads(self.run(argv + ["--normalize"], capsys)[1])
        scale = raw["metadata"]["L_inel"]
        assert norm["metadata"]["L_inel"] == scale
        assert len(norm["rows"]) == len(raw["rows"]) == 1201
        for (nu, lad, cro), row in zip(raw["rows"], norm["rows"]):
            assert row == [nu, lad / scale, cro / scale]
        for key in ("elastic_weight", "ladder_integral", "crossed_integral"):
            assert norm["metadata"][key] == raw["metadata"][key] / scale, key
        # in these units the ladder integrates to 1, the crossed to C_inel/L_inel
        meta = norm["metadata"]
        assert meta["ladder_integral"] == pytest.approx(1.0, abs=2e-4)
        assert meta["crossed_integral"] == pytest.approx(meta["C_inel"] / scale, abs=2e-4)

    @pytest.mark.parametrize("mode", list(NON_DEFAULT_ARGS))
    def test_reproducible_from_own_header(self, mode, tmp_path, capsys):
        headers = []
        runs = [("default", []), ("set", NON_DEFAULT_ARGS[mode])]
        if mode in EXTRA_REPLAY_ARGS:
            runs.append(("extra", EXTRA_REPLAY_ARGS[mode]))
        for name, args in runs:
            out_path = tmp_path / f"{name}.csv"
            assert main([mode, *args, "--output", str(out_path)]) == EXIT_OK
            cfg_path = tmp_path / f"{name}.cfg"
            header = replay_config(out_path, cfg_path)
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
        header = replay_config(out_path, tmp_path / "a.cfg")
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

    def test_compare_oracles_warns_once_in_near_field(self, capsys):
        # the far-field warning comes from the one coupling assemble computes
        with pytest.warns(UserWarning, match="far-field") as record:
            code, _ = self.run(["compare-oracles", "--k0-r12", "5"], capsys)
        assert code == EXIT_OK
        assert len(record) == 1

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

    def test_numerical_failure_is_one_line(self, monkeypatch, capsys):
        # a state with no order-g^2 population fails the intensities; the
        # message carries the "numerical failure" prefix once
        real = cli.perturbative_steady_state

        def empty_order2(gen):
            state = real(gen)
            return replace(state, order2=np.zeros_like(state.order2))

        monkeypatch.setattr(cli, "perturbative_steady_state", empty_order2)
        assert main(["intensity-sweep", "--sweep-points", "3"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: non-positive ladder intensity 0.0\n")

    def test_unresolved_inelastic_fraction_is_one_line(self, capsys):
        # at Omega <= 1e-8, L_inel/L_tot ~ Omega^2 is below what
        # L_inel = L_tot - L_el resolves in double: exit 2, not rounding
        argv = ["intensity-sweep", "--sweep-min", "1e-9", "--sweep-max", "1e-8", "--sweep-points", "3"]
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: inelastic fraction L_inel/L_tot = ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_normalization_failure_is_one_line(self, monkeypatch, capsys):
        # a non-positive inelastic ladder intensity cannot normalize a spectrum
        real = cli.compute_spectrum

        def no_inelastic_ladder(gen, nu_grid):
            spec, ib = real(gen, nu_grid=nu_grid)
            return spec, replace(ib, L_inel=0.0)

        # the sum rule, checked first, has no scale at L_inel = 0
        monkeypatch.setattr(cli, "check_sum_rule", lambda spec, ib: None)
        monkeypatch.setattr(cli, "compute_spectrum", no_inelastic_ladder)
        assert main(["spectrum", "--points", "81", "--normalize"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: normalization requires a positive inelastic ladder "
            "intensity\n")

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--points", "abc"], "points = 'abc' is not a valid int"),
        (["compare-oracles", "--rabi", "7"], "unrecognized arguments: --rabi 7"),
        (["intensity-sweep", "--rabi", "7"], "unrecognized arguments: --rabi 7"),
        (["compare-oracles", "--detuning", "3"], "unrecognized arguments: --detuning 3"),
        # nothing random in these modes: only cone takes a seed
        (["spectrum", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["intensity-sweep", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["compare-oracles", "--seed", "3"], "unrecognized arguments: --seed 3"),
        # argparse's own errors, one line each without the usage block
        (["spectrum", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["spectrum", "--rabi"], "argument --rabi: expected one argument"),
        (["bogus"], "argument mode: invalid choice: 'bogus'"),
        ([], "the following arguments are required: mode"),
    ])
    def test_usage_error(self, argv, message, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--nu-min=-inf"], "nu_min must be finite"),
        (["spectrum", "--nu-min", "nan"], "nu_min must be finite"),
        (["spectrum", "--nu-min=-1e308", "--nu-max=1e308"], "nu_max - nu_min overflows"),
        (["intensity-sweep", "--sweep-max=inf"], "sweep_max must be finite"),
        (["compare-oracles", "--s-values", "1,inf"], "s_values must be finite"),
        # finite limits too close for the points: equal or unordered grid points
        (["spectrum", "--nu-min", "1", "--nu-max", "1.0000000000000002", "--points", "5"],
         "grid of 5 points from nu_min to nu_max is not strictly increasing"),
        (["spectrum", "--nu-min", "0", "--nu-max", "5e-324", "--points", "3"],
         "grid of 3 points from nu_min to nu_max is not strictly increasing"),
        # a value that begins with '-' is the flag's value, not an option
        (["spectrum", "--nu-min", "-inf"], "nu_min must be finite"),
    ])
    def test_non_finite_input_rejected_before_assembly(self, argv, message, monkeypatch,
                                                       capsys):
        # one clear line, and no numpy warning from building a grid first
        def refuse(*args, **kwargs):
            raise AssertionError("assembled before the input was checked")

        monkeypatch.setattr(cli, "assemble", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("argv", [["--version"], ["spectrum", "--help"],
                                      ["intensity-sweep", "--help"]])
    def test_help_and_version(self, argv, capsys):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out
        # the flags take text, but the help still lists the choices
        if "--help" in argv:
            assert "--format {csv,json}" in out
        if argv[0] == "intensity-sweep":
            assert "--sweep-scale {log,linear}" in out

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
        ["cone", "--mc-samples", "10", "--seed", "-1"],
        # rejected whether or not the run samples
        ["cone", "--seed", "-1", "--theta-points", "3"],
        # |r12| overflows although both positions are finite
        ["intensity-sweep", "--k0-r12", "1e300"],
        # (k_ell theta)^2 overflows: no -inf rows
        ["cone", "--k-ell", "1e200", "--theta-points", "3"],
        # the tail model needs a grid from nu < 0 to nu > 0: no division by zero
        ["spectrum", "--nu-min", "0", "--nu-max", "10"],
        # one sample has no standard error
        ["cone", "--mc-samples", "1"],
    ])
    def test_out_of_range(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, plain", [
        (["spectrum", "--nu-min", "-1e1", "--nu-max", "1e1"],
         ["spectrum", "--nu-min", "-10", "--nu-max", "10"]),
        (["intensity-sweep", "--detuning", "-2.5e0"], ["intensity-sweep", "--detuning", "-2.5"]),
    ])
    def test_negative_value_with_exponent(self, argv, plain, capsys):
        # argparse alone would take `-1e1` for an option
        small = {"spectrum": ["--points", "81"], "intensity-sweep": ["--sweep-points", "3"]}
        outputs = []
        for args in (argv, plain):
            assert main(args + small[args[0]]) == EXIT_OK
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""

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
