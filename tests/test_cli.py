import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from blockfade import ChannelSpec, bound_point, discretize_rayleigh, dispersion_stats, make_distribution
import blockfade.cli as cli
from blockfade.cli import _clamped_rate_series, main, preset_fading

TWO_STATE_JSON = '{"gains": [1.0, 2.0], "probs": [0.5, 0.5]}'
INFINITE_GAIN = '{"gains": [1, 1e400], "probs": [0.5, 0.5]}'  # 1e400 parses to inf
README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("rate-vs-blocklength", "rate-vs-power", "verify")


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


class TestBlocklengthSweep:
    def test_header_and_row_values_match_library(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(["rate-vs-blocklength", "--channel", TWO_STATE_JSON,
                     "--power-db", "0", "--points", "4", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["n", "B", "n_c", "power_linear", "epsilon", "capacity",
                          "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt",
                          "rate_nocsit", "log_m_lb_st", "log_m_lb_lt",
                          "log_m_ub_st", "log_m_ub_lt"]
        assert len(rows) == 4

        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0, 2.0], [0.5, 0.5]))
        stats = dispersion_stats(spec, 1.0)
        for row in rows:
            n = int(row["n"])
            bp = bound_point(stats, n, 1, 2, 0.01, 0.01)
            assert int(row["B"]) == bp.blocks
            assert int(row["n_c"]) == 1
            assert float(row["power_linear"]) == 1.0
            assert float(row["epsilon"]) == 0.01
            assert float(row["capacity"]) == stats.capacity
            assert float(row["rate_lb_st"]) == bp.rate_lb_st
            assert float(row["rate_lb_lt"]) == bp.rate_lb_lt
            assert float(row["rate_ub_st"]) == bp.rate_ub_st
            assert float(row["rate_ub_lt"]) == bp.rate_ub_lt
            assert float(row["rate_nocsit"]) == bp.rate_nocsit
            assert float(row["log_m_lb_st"]) == bp.log_m_lb_st
            assert float(row["log_m_ub_lt"]) == bp.log_m_ub_lt

    def test_points_one_yields_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blocklength_sweep": {"b_min": 500, "b_max": 500, "points": 1}}))
        assert main(["rate-vs-blocklength", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["n"] == "500"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["rate-vs-blocklength", "--points", "6", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_log_m_kept_raw_in_csv(self, tmp_path):
        out = tmp_path / "neg.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blocklength_sweep": {"b_min": 2, "b_max": 2, "points": 1}}))
        assert main(["rate-vs-blocklength", "--config", str(cfg), "--channel", TWO_STATE_JSON,
                     "--power-db", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0]["log_m_lb_st"]) < 0.0

    def test_svg_emitted(self, tmp_path):
        out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
        assert main(["rate-vs-blocklength", "--points", "5",
                     "--out", str(out), "--svg", str(svg)]) == 0
        doc = svg.read_text()
        assert doc.startswith("<svg")
        assert doc.count("<polyline") == 6
        assert "capacity" in doc

    def test_endpoints_pinned(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"blocklength_sweep":
                                   {"b_min": 123, "b_max": 4567, "points": 7}}))
        assert main(["rate-vs-blocklength", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["B"] == "123"
        assert rows[-1]["B"] == "4567"


class TestPowerSweep:
    def test_rates_non_decreasing_in_power(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["rate-vs-power", "--points", "6", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 6
        for col in ("capacity", "rate_lb_st", "rate_lb_lt", "rate_ub_st",
                    "rate_ub_lt", "rate_nocsit"):
            values = [float(r[col]) for r in rows]
            assert all(b >= a for a, b in zip(values, values[1:])), col
        # the power-control gain over the constant-power baseline narrows
        # as the budget grows
        gaps = [float(r["rate_lb_st"]) - float(r["rate_nocsit"]) for r in rows]
        assert gaps[-1] < gaps[0]

    def test_csv_bytes_equal_rows_from_single_budget_stats(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["rate-vs-power", "--out", str(out)]) == 0
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=preset_fading())
        lines = [",".join(("n", "B", "n_c", "power_linear", "epsilon", "capacity",
                           "rate_lb_st", "rate_lb_lt", "rate_ub_st", "rate_ub_lt",
                           "rate_nocsit", "log_m_lb_st", "log_m_lb_lt",
                           "log_m_ub_st", "log_m_ub_lt"))]
        for i in range(41):
            budget = 10.0 ** ((0.0 + 20.0 * i / 40) / 10.0)
            stats = dispersion_stats(spec, budget)
            bp = bound_point(stats, 4000, 1, 10, 0.01, 0.01)
            values = (bp.rate_lb_st, bp.rate_lb_lt, bp.rate_ub_st, bp.rate_ub_lt,
                      bp.rate_nocsit, bp.log_m_lb_st, bp.log_m_lb_lt,
                      bp.log_m_ub_st, bp.log_m_ub_lt)
            lines.append(",".join([str(bp.n), str(bp.blocks), "1"]
                                  + [f"{v:.17g}" for v in (budget, 0.01, stats.capacity)]
                                  + [f"{v:.17g}" for v in values]))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_tiny_power_keeps_the_strongest_state_on(self, tmp_path):
        # at -180 dB the budget is far below one unit in the last place of
        # the strong state's floor 1/4; that state still takes the whole
        # budget, so C = 0.5*0.5*log(1 + 4*2e-18) = 2e-18 up to 1e-17 relative
        out = tmp_path / "t.csv"
        assert main(["rate-vs-blocklength", "--channel", TWO_STATE_JSON, "--power-db", "-180",
                     "--points", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row["capacity"]) == pytest.approx(2e-18, rel=1e-12)

    def test_single_power_point_matches_blocklength_command(self, tmp_path):
        p_out, b_out = tmp_path / "p.csv", tmp_path / "b.csv"
        p_cfg = tmp_path / "p.json"
        p_cfg.write_text(json.dumps({"power_sweep":
                                     {"p_min_db": 5.0, "p_max_db": 5.0, "points": 1,
                                      "blocks": 4000}}))
        assert main(["rate-vs-power", "--config", str(p_cfg), "--out", str(p_out)]) == 0
        b_cfg = tmp_path / "b.json"
        b_cfg.write_text(json.dumps({"blocklength_sweep":
                                     {"b_min": 4000, "b_max": 4000, "points": 1}}))
        assert main(["rate-vs-blocklength", "--config", str(b_cfg),
                     "--power-db", "5", "--out", str(b_out)]) == 0
        assert p_out.read_bytes() == b_out.read_bytes()


class TestConfigHandling:
    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"power_db": 10.0,
                                   "blocklength_sweep": {"b_min": 100, "b_max": 100, "points": 1}}))
        out = tmp_path / "o.csv"
        assert main(["rate-vs-blocklength", "--config", str(cfg),
                     "--power-db", "5", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0]["power_linear"]) == pytest.approx(10 ** 0.5, rel=1e-15)

    def test_channel_from_file(self, tmp_path):
        profile = tmp_path / "chan.json"
        profile.write_text(TWO_STATE_JSON)
        out = tmp_path / "o.csv"
        assert main(["rate-vs-blocklength", "--channel", str(profile),
                     "--points", "1", "--power-db", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        spec = ChannelSpec(noise_var=1.0, n_c=1, fading=make_distribution([1.0, 2.0], [0.5, 0.5]))
        assert float(rows[0]["capacity"]) == dispersion_stats(spec, 1.0).capacity

    def test_preset_matches_library_constructor(self):
        assert preset_fading() == discretize_rayleigh(0.1, 4.1, 10, 1.0)

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"powre_db": 5.0}))
        assert main(["rate-vs-blocklength", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "powre_db" in capsys.readouterr().err

    def test_both_budget_forms_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"power_db": 5.0, "power_linear": 2.0}))
        assert main(["rate-vs-blocklength", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "power" in capsys.readouterr().err

    def test_both_axes_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "blocklength_sweep": {"b_min": 10, "b_max": 20, "points": 2},
            "power_sweep": {"p_min_db": 0.0, "p_max_db": 5.0, "points": 2, "blocks": 10},
        }))
        assert main(["rate-vs-blocklength", "--config", str(cfg), "--out", "x.csv"]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_missing_out_is_config_error(self, capsys):
        assert main(["rate-vs-blocklength", "--points", "1"]) == 1
        assert "out" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path):
        target = tmp_path / "missing-dir" / "o.csv"
        assert main(["rate-vs-blocklength", "--points", "1", "--out", str(target)]) == 1

    def test_nonexistent_channel_path(self, tmp_path):
        assert main(["rate-vs-blocklength", "--channel", "no-such-preset",
                     "--points", "1", "--out", str(tmp_path / "o.csv")]) == 1

    def test_bad_epsilon_is_config_error(self, tmp_path):
        assert main(["rate-vs-blocklength", "--epsilon", "0.6",
                     "--points", "1", "--out", str(tmp_path / "o.csv")]) == 1

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["rate-vs-blocklength", "--frobnicate"]) == 1

    def test_reused_parser_recovers_after_usage_error(self, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        out = tmp_path / "o.csv"
        assert main(["rate-vs-blocklength", "--frobnicate"]) == 1
        assert main(["rate-vs-blocklength", "--points", "1", "--out", str(out)]) == 0
        assert main(["no-such-command"]) == 1
        assert main(["rate-vs-power", "--points", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_clamping_helper_floors_rates_at_zero(self):
        columns = {"capacity": np.array([0.5, 0.5]), "rate_lb_st": np.array([-0.25, 0.1]),
                   "rate_lb_lt": np.array([-0.1, 0.2]), "rate_ub_st": np.array([0.2, 0.3]),
                   "rate_ub_lt": np.array([0.3, 0.4]), "rate_nocsit": np.array([-0.05, 0.0])}
        series = _clamped_rate_series(columns, [1.0, 2.0])
        assert all(y >= 0.0 for _, _, ys in series for y in ys)


class TestVerify:
    SMALL_MC = {
        "mc": {
            "seed": 42,
            "alpha": 0.1,
            "controller": {"blocks": 300, "trials": 3000},
            "density": {"blocks": 500, "trials": 20000},
        }
    }

    def test_small_verify_passes_and_is_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SMALL_MC))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["pass"] is True
        assert report["controller"]["pass"] is True
        assert report["density"]["pass"] is True

    def test_report_written_to_stdout_without_out(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SMALL_MC))
        assert main(["verify", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    def test_single_state_channel_reports_zero_violations(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        payload = dict(self.SMALL_MC)
        payload["channel"] = {"gains": [1.0], "probs": [1.0]}
        payload["power_linear"] = 2.0
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["controller"]["empirical_prob"] == 0.0

    def test_undersampled_run_fails_with_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mc": {"seed": 42, "alpha": 0.1,
                   "controller": {"blocks": 300, "trials": 500},
                   "density": {"blocks": 200, "trials": 120}},
        }))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["pass"] is False

    def test_zero_trials_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": {"density": {"trials": 0}}}))
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "trials" in capsys.readouterr().err

    def test_density_trial_rule_checked_before_any_simulation(self, tmp_path, capsys,
                                                             monkeypatch):
        def must_not_run(cfg):
            raise AssertionError("controller simulated before the config was checked")

        monkeypatch.setattr(cli, "simulate_st_controller", must_not_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": {"density": {"trials": 50}}}))
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "100 trials" in capsys.readouterr().err

    def test_default_verify_passes(self, tmp_path):
        # the documented default: two-state channel, seed 42, full trial
        # counts; takes a few seconds
        out = tmp_path / "default.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["seed"] == 42
        assert report["controller"]["trials"] == 100000
        assert report["density"]["trials"] == 10000

    def test_trials_flag_overrides_both_sims(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mc": {"seed": 1, "alpha": 0.1,
                   "controller": {"blocks": 100, "trials": 50},
                   "density": {"blocks": 100, "trials": 50}},
        }))
        out = tmp_path / "r.json"
        main(["verify", "--config", str(cfg), "--trials", "150", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["controller"]["trials"] == 150
        assert report["density"]["trials"] == 150


class TestSchema:
    @pytest.mark.parametrize("command,payload,field", [
        ("rate-vs-blocklength", {"epsilon": "0.05"}, "epsilon"),
        ("rate-vs-blocklength", {"power_db": "3"}, "power_db"),
        ("rate-vs-power", {"power_sweep": {"p_min_db": True}}, "p_min_db"),
        ("rate-vs-blocklength", {"blocklength_sweep": {"log_spaced": "false"}}, "log_spaced"),
    ])
    def test_value_of_the_wrong_json_type_rejected(self, tmp_path, capsys, command, payload,
                                                   field):
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps(payload))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,payload,flags,field", [
        ("rate-vs-blocklength", {}, ["--power-db", "4000"], "power_db"),
        ("rate-vs-power", {"power_sweep": {"p_max_db": 4000}}, [], "p_max_db"),
        ("verify", {}, ["--power-db", "4000"], "power_db"),
    ])
    def test_db_value_past_the_float_range_rejected(self, tmp_path, capsys, command, payload,
                                                    flags, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")] + flags
        assert main(argv) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload,flags,field", [
        ("rate-vs-blocklength", None, [], "out"),
        ("rate-vs-power", None, [], "out"),
        ("rate-vs-blocklength", {"powre_db": 5.0}, ["--out", "o.csv"], "powre_db"),
        ("rate-vs-power", {"power_db": 3.0}, ["--out", "o.csv"], "power_db"),
        ("verify", {"blocklength_sweep": {"points": 2}}, [], "blocklength_sweep"),
        ("rate-vs-power", {"epsilon": "0.05"}, ["--out", "o.csv"], "epsilon"),
        ("verify", {"mc": {"seed": 1.5}}, [], "seed"),
        ("rate-vs-blocklength", None, ["--out", "o.csv", "--channel", INFINITE_GAIN], "finite"),
        ("rate-vs-power", None, ["--out", "o.csv", "--channel", INFINITE_GAIN], "finite"),
        ("verify", None, ["--trials", "2000", "--channel", INFINITE_GAIN], "finite"),
    ])
    def test_config_fault_found_before_any_computation(self, tmp_path, capsys, monkeypatch,
                                                       command, payload, flags, field):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computation started before the config was checked")

        for name in ("dispersion_stats", "sweep_dispersion_stats", "simulate_st_controller",
                     "simulate_information_density"):
            monkeypatch.setattr(cli, name, must_not_run)
        argv = [command] + flags
        if payload is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(payload))
            argv += ["--config", str(cfg)]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert field in capsys.readouterr().err

    def test_integer_gain_past_the_float_range_is_one_error_line(self, tmp_path, capsys):
        big = 10 ** 400
        profile = tmp_path / "big.json"
        profile.write_text(json.dumps({"gains": [big, 2 * big], "probs": [0.5, 0.5]}))
        assert main(["rate-vs-blocklength", "--channel", str(profile),
                     "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(big) in err

    @pytest.mark.parametrize("flag", ["--config", "--channel"])
    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys, flag):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["rate-vs-power", flag, str(deep), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err

    def test_seed_outside_64_bits_rejected(self, capsys):
        for seed in ("-1", str(2 ** 64)):
            assert main(["verify", "--seed", seed, "--trials", "300"]) == 1
            assert "seed" in capsys.readouterr().err


def readme_command_section(command):
    """The JSON example and the flag list README gives for one command."""
    match = re.search(rf"#### `{re.escape(command)}`\n\n```json\n(.*?)```\n\nFlags: (.*?)\n",
                      README.read_text(encoding="utf-8"), re.S)
    assert match, f"README has no example and flag list for {command}"
    return json.loads(match.group(1)), re.findall(r"`(--[a-z-]+)`", match.group(2))


class TestReadme:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_example_resolves_to_the_defaults(self, tmp_path, command):
        example, _ = readme_command_section(command)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(example))
        resolved = cli._resolve(cli._build_parser().parse_args([command, "--config", str(cfg)]))
        for name, (_, default) in cli._SCHEMAS[command].items():
            if default is not None and default is not cli._REQUIRED:
                assert resolved[name] == default, name

    def test_csv_column_list_matches_the_writer(self):
        match = re.search(r"### CSV output\n.*?```\n(.*?)```", README.read_text(encoding="utf-8"),
                          re.S)
        assert match, "README has no CSV column block"
        assert tuple(re.split(r",\s*", match.group(1).strip())) == cli._CSV_COLUMNS

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flag_list_matches_the_parser(self, capsys, command):
        _, documented = readme_command_section(command)
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([command, "--help"])
        shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert sorted(documented) == sorted(shown)
