"""CLI contract: subcommands, exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qellip import cli, noise
from qellip.cli import main
from qellip.mathieu import auto_truncation
from qellip.noise import FAMILIES, coherent_family, report_from_dict, rho_uncertainty

STACK = """\
ambient 1.0
layer 1.46 0.0 100.0
substrate 3.85 0.02
wavelength 632.8
angle 70
"""

#: (family, parameter) for every required parameter in the registry
REQUIRED_PARAMS = [(name, p.name) for name, (_, params) in FAMILIES.items()
                   for p in params if p.required]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env() -> dict:
    """This environment, with the tree's src first on PYTHONPATH and no
    PYTHONUNBUFFERED, so a child's stdout is block-buffered as a user's is."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    return env


def qellip(*argv, cwd=None, stdout=subprocess.PIPE):
    """One ``python -m qellip.cli`` process, through ``cli.run``."""
    return subprocess.run([sys.executable, "-m", "qellip.cli", *argv], cwd=cwd,
                          env=child_env(), stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


class TestState:
    def test_coherent_reference_values(self, capsys):
        code, out, _ = run(capsys, "state", "--family", "coherent",
                           "--nbar", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["l_var"] == pytest.approx(25.0, abs=1e-6)
        assert doc["e_var"] == pytest.approx(0.01, rel=0.1)
        assert doc["pol_squeezed"] is False

    def test_mathieu_q_zero(self, capsys):
        code, out, _ = run(capsys, "state", "--family", "mathieu", "--q", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["e_var"] == 1.0
        assert doc["l_var"] == 0.0

    def test_squeezed_closed_form(self, capsys):
        code, out, _ = run(capsys, "state", "--family", "squeezed",
                           "--s", "1", "--nbar", "10", "--dphi", "0")
        assert code == 0
        doc = json.loads(out)
        expected = (10.0 - 2.0 * np.sinh(1.0) ** 2) * np.exp(-2.0) / 4.0
        assert doc["l_var"] == pytest.approx(expected, abs=1e-3)

    def test_json_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "state", "--family", "von_mises",
                         "--kappa", "2.5", "--nbar", "50",
                         "--output", str(path))
        assert code == 0
        first = report_from_dict(json.loads(path.read_text()))
        run(capsys, "state", "--family", "von_mises", "--kappa", "2.5",
            "--nbar", "50", "--output", str(path))
        assert report_from_dict(json.loads(path.read_text())) == first

    @pytest.mark.parametrize("argv", [("mathieu", "--q", "0"), ("von_mises", "--kappa", "0")])
    def test_degenerate_bound_writes_strict_json(self, capsys, argv):
        # <E> = 0: the saturation ratio is null, not the non-JSON Infinity
        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out, _ = run(capsys, "state", "--family", *argv, "--nbar", "100")
        assert code == 0
        doc = json.loads(out, parse_constant=refuse)
        assert doc["saturation_ratio"] is None
        assert math.isinf(report_from_dict(doc).saturation_ratio)
        code, out, _ = run(capsys, "sweep", "--family", *argv, "--format", "json",
                           "--nbar-list", "10,20,40,80")
        assert code == 0
        doc = json.loads(out, parse_constant=refuse)
        column = doc["columns"].index("saturation_ratio")
        assert [row[column] for row in doc["rows"]] == [None] * 4

    @pytest.mark.parametrize("family,missing", REQUIRED_PARAMS)
    def test_missing_family_parameter(self, capsys, family, missing):
        given = [a for name, p in REQUIRED_PARAMS
                 if name == family and p != missing for a in (f"--{p}", "1")]
        code, _, err = run(capsys, "state", "--family", family, *given)
        assert code == 2
        assert f"--{missing}" in err

    @pytest.mark.parametrize("family,flag", [
        ("coherent --q 5", "--q"),
        ("mathieu --q 1 --dphi 0.5", "--dphi"),
        ("von_mises --kappa 1 --s 1", "--s"),
        ("squeezed --s 1 --order 1", "--order"),
    ], ids=["coherent-q", "mathieu-dphi", "von_mises-s", "squeezed-order"])
    def test_flag_of_another_family_exits_2(self, capsys, family, flag):
        code, _, err = run(capsys, "state", "--family", *family.split())
        assert code == 2
        assert f"{flag} does not apply" in err

    def test_config_keys_of_other_families_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "coherent", "nbar": 16.0, "q": 5,
                                   "kappa": 2, "nbar_list": [40, 80]}))
        code, out, _ = run(capsys, "state", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["n_mean"] == pytest.approx(16.0, rel=1e-9)

    def test_cutoff_config_key_is_ignored(self, capsys, tmp_path):
        # the Fock cutoff is derived, never set: a cutoff key is one more
        # key no subcommand takes, whatever its value
        outputs = []
        for extra in ({}, {"cutoff": 5}, {"cutoff": 40.7}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"family": "coherent", "nbar": 100, **extra}))
            code, out, _ = run(capsys, "state", "--config", str(cfg))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_invalid_parameter_exits_2(self, capsys):
        code, _, _ = run(capsys, "state", "--family", "mathieu", "--q", "-1")
        assert code == 2

    @pytest.mark.parametrize("family", [["coherent"], ["squeezed", "--s", "0.5"],
                                        ["von_mises", "--kappa", "2"]])
    @pytest.mark.parametrize("nbar", ["nan", "inf"])
    def test_non_finite_nbar_exits_2(self, capsys, family, nbar):
        code, _, err = run(capsys, "state", "--family", *family, "--nbar", nbar)
        assert code == 2
        assert "finite" in err

    def test_oversized_grid_exits_2(self, capsys):
        # regression: the (M+1)^2 grid was allocated and died in MemoryError;
        # nbar 2e12 needs a factor column of 1e12 rows, past the budget
        code, _, err = run(capsys, "state", "--family", "coherent", "--nbar", "2e12")
        assert code == 2
        assert "budget" in err

    def test_bright_coherent_state_runs(self, capsys):
        # one factor column per mode, where the (M+1)^2 grid would take 41 GiB
        code, out, _ = run(capsys, "state", "--family", "coherent", "--nbar", "1e5")
        assert code == 0
        assert json.loads(out)["n_mean"] == pytest.approx(1e5, rel=1e-9)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "coherent", "nbar": 16.0}))
        code, out, _ = run(capsys, "state", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["n_mean"] == pytest.approx(16.0, rel=1e-9)
        code, out, _ = run(capsys, "state", "--config", str(cfg),
                           "--nbar", "36")
        assert code == 0
        assert json.loads(out)["n_mean"] == pytest.approx(36.0, rel=1e-9)

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run(capsys, "state", "--family", "coherent",
                         "--config", str(cfg))
        assert code == 2
        cfg.write_text("[1, 2]")
        code, _, err = run(capsys, "state", "--family", "coherent", "--config", str(cfg))
        assert code == 2
        assert "expected a JSON object" in err

    def test_von_mises_window_over_budget_exits_2(self, capsys):
        code, _, err = run(capsys, "state", "--family", "von_mises",
                           "--kappa", "1e12", "--nbar", "100")
        assert code == 2
        assert "budget" in err


class TestSweep:
    def test_coherent_csv_and_fit(self, capsys, tmp_path):
        table, fit = tmp_path / "sweep.csv", tmp_path / "fit.json"
        code, _, _ = run(capsys, "sweep", "--family", "coherent",
                         "--nbar-list", "25,50,100,200,400",
                         "--output", str(table), "--fit-output", str(fit))
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == ("nbar,e_var,l_var,p_var,product,bound,"
                            "saturation_ratio,pol_squeezed")
        nbars = [float(l.split(",")[0]) for l in lines[1:]]
        assert nbars == sorted(nbars)
        assert len(lines) == 6
        summary = json.loads(fit.read_text())
        assert summary["slope"] == pytest.approx(-1.0, abs=0.05)
        assert summary["r_squared"] > 0.99

    def test_mathieu_modulus_target(self, capsys, tmp_path):
        fit = tmp_path / "fit.json"
        code, _, _ = run(capsys, "sweep", "--family", "mathieu", "--q", "1",
                         "--nbar-list", "40,80,160,320", "--target", "p_var",
                         "--output", str(tmp_path / "t.csv"),
                         "--fit-output", str(fit))
        assert code == 0
        assert json.loads(fit.read_text())["slope"] == pytest.approx(-2.0,
                                                                     abs=0.05)

    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(capsys, "sweep", "--family", "coherent",
                "--nbar-list", "25,50,100,200", "--output", str(p),
                "--fit-output", str(tmp_path / "f.json"))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "coherent",
                           "--nbar-list", "25,50,100,200", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][0] == "nbar"
        assert len(doc["rows"]) == 4
        assert "slope" in doc["fit"]

    def test_json_format_refuses_fit_output(self, capsys, tmp_path):
        # the parent exited 0 and wrote no fit file
        fit = tmp_path / "fit.json"
        code, out, err = run(capsys, "sweep", "--family", "coherent", "--nbar-list", "10,20",
                             "--format", "json", "--fit-output", str(fit))
        assert (code, out) == (2, "")
        assert err == ("error: --fit-output does not apply to --format json: "
                       "its document holds the fit\n")
        assert not fit.exists()

    def test_multiple_targets(self, capsys, tmp_path):
        fit = tmp_path / "fit.json"
        code, _, _ = run(capsys, "sweep", "--family", "mathieu", "--q", "1",
                         "--nbar-list", "40,80,160,320",
                         "--target", "p_var", "--target", "l_var",
                         "--output", str(tmp_path / "t.csv"),
                         "--fit-output", str(fit))
        assert code == 0
        summary = json.loads(fit.read_text())
        assert summary["p_var"]["slope"] == pytest.approx(-2.0, abs=0.05)
        assert summary["l_var"]["slope"] == pytest.approx(0.0, abs=0.02)

    def test_squeezed_family_noise_balance(self, capsys, tmp_path):
        table, fit = tmp_path / "sq.csv", tmp_path / "sqf.json"
        code, _, _ = run(capsys, "sweep", "--family", "squeezed", "--s", "1",
                         "--dphi", "0", "--nbar-list", "20,40,80,160",
                         "--target", "l_var", "--output", str(table),
                         "--fit-output", str(fit))
        assert code == 0
        rows = [r.split(",") for r in table.read_text().splitlines()[1:]]
        # difference noise grows ~linearly while phase noise obeys
        # e_var * nbar -> e^{2s}; squeezing criterion holds throughout
        assert json.loads(fit.read_text())["slope"] == pytest.approx(1.06,
                                                                     abs=0.1)
        last_nbar, last_e_var = float(rows[-1][0]), float(rows[-1][1])
        assert last_e_var * last_nbar == pytest.approx(np.exp(2.0), rel=0.1)
        assert all(r[7] == "true" for r in rows)

    def test_rho_var_target(self, capsys, monkeypatch):
        # the fitted points are the squared relative rho bars of each row's report
        fitted = []

        def fit_power_law(points):
            fitted.extend(points)
            return fit(points)

        fit = noise.fit_power_law
        monkeypatch.setattr(noise, "fit_power_law", fit_power_law)
        code, out, _ = run(capsys, "sweep", "--family", "coherent",
                           "--nbar-list", "100,200,400,800", "--target", "rho_var",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [n for n, _ in fitted] == [row[0] for row in doc["rows"]] == [100, 200, 400, 800]
        for (nbar, value), row in zip(fitted, doc["rows"]):
            report = coherent_family().build_report(nbar)
            assert [report.e_var, report.p_var] == row[1:4:2]
            assert value == rho_uncertainty(report).sigma_rho_rel ** 2
        assert doc["fit"]["slope"] == pytest.approx(-1.0, abs=0.05)

    def test_non_finite_nbar_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "mathieu", "--q", "1",
                           "--nbar-list", "40,80,inf,160")
        assert code == 2
        assert "finite" in err

    def test_empty_nbar_list_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "coherent",
                         "--nbar-list", "")
        assert code == 2

    def test_unknown_target_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "coherent",
                         "--nbar-list", "25,50,100,200", "--target", "x_var")
        assert code == 2

    def test_odd_layer_for_embedded_family_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "mathieu", "--q", "1",
                         "--nbar-list", "41,80,160,320")
        assert code == 2


class TestFamilyRegistry:
    """state, sweep and ellipsometry read one registry of families."""

    @pytest.mark.parametrize("name", ["bogus", ["coherent"]], ids=["bogus", "list"])
    @pytest.mark.parametrize("command", ["state", "sweep", "ellipsometry"])
    def test_unknown_family_in_config_exits_2(self, capsys, tmp_path, command, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": name, "kappa": 2, "nbar": 50,
                                   "nbar_list": [40, 80]}))
        stack = tmp_path / "stack.txt"
        stack.write_text(STACK)
        extra = ["--stack", str(stack)] if command == "ellipsometry" else []
        code, out, err = run(capsys, command, *extra, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"unknown family {name!r}" in err
        assert all(valid in err for valid in FAMILIES)

    def test_sweep_honours_order(self, capsys):
        rows = {}
        for order in ("0", "2"):
            code, out, _ = run(capsys, "sweep", "--family", "mathieu", "--q", "1",
                               "--order", order, "--nbar-list", "40,80,160",
                               "--format", "json")
            assert code == 0
            rows[order] = json.loads(out)["rows"]
        assert rows["0"] != rows["2"]
        # l_var (column 2) is the order's difference variance, the same at
        # every photon number
        l_var = [r[2] for r in rows["2"]]
        assert l_var == pytest.approx([l_var[0]] * 3, rel=1e-12)
        assert l_var[0] > 10 * rows["0"][0][2]

    @pytest.mark.parametrize("argv", ["state --nbar 100", "sweep --nbar-list 40,80"],
                             ids=["state", "sweep"])
    def test_cutoff_flag_exits_2(self, capsys, argv):
        # the Fock cutoff is derived from the state, not a family flag
        command, *nbar = argv.split()
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "coherent", *nbar, "--cutoff", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cutoff 5" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [["coherent"],
                                        ["squeezed", "--s", "0.7", "--dphi", "0.3"]],
                             ids=["coherent", "squeezed"])
    def test_fock_family_state_matches_sweep_row(self, capsys, family):
        code, out, _ = run(capsys, "state", "--family", *family, "--nbar", "40")
        assert code == 0
        state = json.loads(out)
        code, out, _ = run(capsys, "sweep", "--family", *family,
                           "--nbar-list", "20,40", "--format", "json")
        assert code == 0
        sweep = json.loads(out)
        row = dict(zip(sweep["columns"], sweep["rows"][1]))
        assert row.pop("nbar") == 40.0
        assert row == {key: state[key] for key in row}

    @pytest.mark.parametrize("family", [["mathieu", "--q", "1", "--order", "1"],
                                        ["von_mises", "--kappa", "2",
                                         "--phi0", "0.4"]],
                             ids=["mathieu", "von_mises"])
    def test_phase_family_state_vs_sweep(self, capsys, family):
        # state reports the bare phase state with p_var = 4 Var L / nbar^2;
        # sweep embeds it on the nbar layer and takes the exact modulus P
        code, out, _ = run(capsys, "state", "--family", *family, "--nbar", "40")
        assert code == 0
        state = json.loads(out)
        code, out, _ = run(capsys, "sweep", "--family", *family,
                           "--nbar-list", "40,80", "--format", "json")
        assert code == 0
        sweep = json.loads(out)
        row = dict(zip(sweep["columns"], sweep["rows"][0]))
        assert state["e_var"] == pytest.approx(row["e_var"], rel=1e-12, abs=1e-12)
        assert state["l_var"] == pytest.approx(row["l_var"], rel=1e-12, abs=1e-12)
        assert state["p_var"] == pytest.approx(4.0 * state["l_var"] / 40.0 ** 2,
                                               rel=1e-12)


class TestInputChecks:
    @pytest.mark.parametrize("command,cfg,what", [
        ("state", {"family": "squeezed", "s": [1], "nbar": 10}, "s"),
        ("state", {"family": "squeezed", "s": 1, "nbar": [1]}, "nbar"),
        ("state", {"family": "mathieu", "q": 1, "order": {"k": 1}}, "order"),
        ("sweep", {"family": "coherent", "nbar_list": 40}, "nbar list"),
        ("sweep", {"family": "coherent", "nbar_list": [40, [80]]}, "nbar"),
        ("sweep", {"family": "coherent", "nbar_list": [40, 80], "targets": 3}, "targets"),
        ("density", {"q": [1]}, "q"),
        ("density", {"kappa": 2, "grid": [64]}, "grid"),
        ("mathieu-table", {"q": 1, "kmax": [3]}, "kmax"),
        # integers must be whole numbers: the parent read 1.5 as 1
        ("state", {"family": "mathieu", "q": 1, "order": 1.5}, "order"),
        ("sweep", {"family": "mathieu", "q": 1, "order": 2.5, "nbar_list": [40, 80]}, "order"),
        ("density", {"kappa": 2, "grid": 100.5}, "grid"),
        ("mathieu-table", {"q": 1, "kmax": 1.9}, "kmax"),
        # a JSON boolean is no number: the parent read true as 1
        ("state", {"family": "mathieu", "q": 1, "order": True}, "order"),
        ("state", {"family": "coherent", "nbar": True}, "nbar"),
        ("density", {"kappa": 2, "grid": False}, "grid"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path,
                                                command, cfg, what):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, command, "--config", str(path))
        assert code == 2
        assert err.startswith(f"error: {what} must be")

    def test_unknown_sweep_format_in_config_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": "coherent", "nbar_list": [10, 20],
                                    "format": "xml"}))
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "unknown output format 'xml'" in err

    def test_output_naming_a_directory_exits_2(self, capsys, tmp_path):
        # the rename onto the directory fails; the temp file goes with it
        (tmp_path / "out").mkdir()
        code, out, _ = run(capsys, "state", "--family", "coherent", "--nbar", "10",
                           "--output", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_numeric_strings_and_whole_floats_are_read(self, capsys, tmp_path):
        # flags and config values share one conversion: the parent refused
        # the flag --kmax 2.0 and the config string "2.0"
        path = tmp_path / "cfg.json"
        outputs = []
        for cfg in ({"q": 1, "kmax": 2}, {"q": "1", "kmax": "2"}, {"q": 1.0, "kmax": 2.0},
                    {"q": "1.0", "kmax": "2.0"}):
            path.write_text(json.dumps(cfg))
            code, out, _ = run(capsys, "mathieu-table", "--config", str(path))
            assert code == 0
            outputs.append(out)
        for kmax in ("2", "2.0", "2e0"):
            code, out, _ = run(capsys, "mathieu-table", "--q", "1", "--kmax", kmax)
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    @pytest.mark.parametrize("argv, flag, whole", [
        ("density --q 1", "--grid", "512"),
        ("state --family mathieu --q 1", "--order", "1"),
        ("sweep --family mathieu --q 1 --nbar-list 40,80", "--order", "1"),
        ("mathieu-table --q 1", "--kmax", "2"),
    ], ids=["grid", "state-order", "sweep-order", "kmax"])
    def test_whole_float_flags_are_integers(self, capsys, argv, flag, whole):
        code, expected, _ = run(capsys, *argv.split(), flag, whole)
        assert code == 0
        code, out, err = run(capsys, *argv.split(), flag, whole + ".0")
        assert (code, err) == (0, "")
        assert out == expected

    @pytest.mark.parametrize("argv, message", [
        ("state --family mathieu --q abc", "q must be a number, got 'abc'"),
        ("state --family mathieu --q 1 --order 1.5", "order must be an integer, got 1.5"),
        ("mathieu-table --q 1 --kmax 1.5", "kmax must be an integer, got 1.5"),
        ("density --kappa 2 --grid 64x", "grid must be an integer, got '64x'"),
        ("state --family bogus",
         "unknown family 'bogus'; expected one of coherent, squeezed, mathieu, von_mises"),
        ("sweep --family coherent --nbar-list 10,20 --format xml",
         "unknown output format 'xml'"),
    ])
    def test_bad_flag_value_is_one_error_line(self, capsys, argv, message):
        # argparse converts no value, so a bad one is no usage line and
        # no SystemExit out of main
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        ("state --family coherent --nbar inf", "nbar must be finite and >= 0, got inf"),
        ("state --family squeezed --s 1 --nbar inf", "nbar must be finite and >= 0, got inf"),
        ("state --family mathieu --q 1 --nbar nan", "nbar must be finite and positive, got nan"),
        ("sweep --family coherent --nbar-list 10,-inf", "nbar must be finite, got -inf"),
    ])
    def test_library_checks_the_photon_number(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        "state --family coherent --nbar 1e200",
        "state --family squeezed --s 1 --nbar 1e300",
    ], ids=["coherent", "squeezed"])
    def test_huge_photon_numbers_refused_by_the_budget(self, capsys, argv):
        # the parent died in an OverflowError traceback, exit 1
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_mathieu_sweep_on_huge_layers_runs(self, capsys):
        # a layer state stores its window, whatever the layer
        code, out, _ = run(capsys, *"sweep --family mathieu --q 1 --nbar-list "
                           "1e200,2e200,4e200,8e200 --format json".split())
        assert code == 0
        doc = json.loads(out)
        assert [row[0] for row in doc["rows"]] == [1e200, 2e200, 4e200, 8e200]
        assert all(math.isfinite(v) for row in doc["rows"] for v in row)
        assert doc["fit"]["slope"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("argv", ["state --family coherent --nbar -5",
                                      "sweep --family coherent --nbar-list=-4,10,20,40"],
                             ids=["state", "sweep"])
    def test_negative_coherent_nbar_is_named(self, capsys, argv):
        # the parent warned from numpy's sqrt, then blamed alpha_p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: nbar must be finite and >= 0, got -")

    def test_bare_phase_report_at_extreme_nbar(self, capsys):
        # the parent died in an OverflowError (nbar ** 2) and a
        # ZeroDivisionError traceback, exit 1
        code, out, _ = run(capsys, "state", "--family", "mathieu", "--q", "0",
                           "--nbar", "1e308")
        assert code == 0
        assert json.loads(out)["p_var"] == 0.0
        code, out, err = run(capsys, "state", "--family", "mathieu", "--q", "1e8",
                             "--order", "64", "--nbar", "5e-324")
        assert code == 2
        assert out == ""
        assert err.startswith("error: nbar=5e-324 is too small")

    def test_von_mises_at_a_huge_phi0(self, capsys):
        # the parent's l * phi0 overflowed, and the NaN components were
        # trimmed away: l_var 0.662 on a support of 3
        _, out, _ = run(capsys, "state", "--family", "von_mises", "--kappa", "100",
                        "--nbar", "100")
        ref = json.loads(out)
        code, out, _ = run(capsys, "state", "--family", "von_mises", "--kappa", "100",
                           "--phi0", "1e308", "--nbar", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["l_var"] == pytest.approx(ref["l_var"], rel=1e-14)
        assert np.hypot(doc["e_mean_re"], doc["e_mean_im"]) == pytest.approx(
            np.hypot(ref["e_mean_re"], ref["e_mean_im"]), rel=1e-14)

    def test_sweep_at_one_photon_number_exits_2(self, capsys):
        # both usable points sit at nbar 0.5; the parent fitted slope 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--family", "coherent", "--nbar-list",
                                 "0.5,1e-300,0.5,1e-320", "--target", "l_var")
        assert code == 2
        assert out == ""
        assert err.startswith("error: power-law fit needs >= 2 usable points")

    def test_squeezing_past_the_photon_number_exits_2(self, capsys):
        # the parent overflowed in sinh first (an error under the suite's
        # RuntimeWarning filter)
        code, out, err = run(capsys, "state", "--family", "squeezed", "--s", "1e154",
                             "--nbar", "10")
        assert code == 2
        assert out == ""
        assert err == "error: nbar must be >= 2 sinh^2 s, got 10.0 at s = 1e+154\n"

    @pytest.mark.parametrize("flag", ["--nbar", "--nb"])
    def test_sweep_has_no_nbar_flag(self, capsys, flag):
        # neither the flag nor an abbreviation of --nbar-list is taken
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "coherent", flag, "5",
                  "--nbar-list", "25,50"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--q", "5"], ["--nbar", "100"],
                                       ["--kappa", "2", "--phi0", "0.1"]])
    def test_ellipsometry_family_flags_need_family(self, capsys, tmp_path, flags):
        stack = tmp_path / "stack.txt"
        stack.write_text(STACK)
        code, out, err = run(capsys, "ellipsometry", "--stack", str(stack), *flags)
        assert code == 2
        assert out == ""
        assert f"{flags[0]} needs --family" in err


class TestStartup:
    def test_no_scipy_on_the_import_path(self):
        # coherent, squeezed and von Mises states need numpy only; scipy
        # loads at the first Mathieu eigensolve
        code = (
            "import contextlib, io, sys\n"
            "import qellip, qellip.cli\n"
            "for argv in (['state', '--family', 'coherent', '--nbar', '100'],\n"
            "             ['state', '--family', 'squeezed', '--s', '1', '--nbar', '10'],\n"
            "             ['state', '--family', 'von_mises', '--kappa', '4', '--nbar', '100']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert qellip.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def child(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_bare_import_loads_no_submodule(self):
        out = self.child("import sys, qellip\n"
                         "print(sorted(m for m in sys.modules if m.startswith('qellip.')))\n")
        assert out == "[]"

    def test_state_loads_no_optics(self):
        out = self.child(
            "import contextlib, io, sys\n"
            "from qellip import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['state', '--family', 'coherent', '--nbar', '100']) == 0\n"
            "print('qellip.optics' in sys.modules)\n")
        assert out == "False"

    def test_every_public_name_resolves_after_a_bare_import(self):
        out = self.child(
            "import importlib, qellip\n"
            "submodules = ('cli', 'errors', 'fock', 'mathieu', 'noise', 'optics', 'phase_space')\n"
            "for name in submodules:\n"
            "    assert getattr(qellip, name) is importlib.import_module('qellip.' + name)\n"
            "for name in qellip.__all__:\n"
            "    value = getattr(qellip, name)\n"
            "    assert any(getattr(getattr(qellip, m), name, None) is value\n"
            "               for m in submodules), name\n"
            "assert set(qellip.__all__) | set(submodules) <= set(dir(qellip))\n"
            "try:\n"
            "    qellip.no_such_name\n"
            "except AttributeError:\n"
            "    print(len(qellip.__all__))\n")
        assert int(out) >= 47


class TestDensity:
    def test_fig1_style_outputs(self, capsys, tmp_path):
        dens = tmp_path / "density.csv"
        code, _, _ = run(capsys, "density", "--q", "0.1", "--grid", "512",
                         "--output", str(dens))
        assert code == 0
        lines = dens.read_text().splitlines()
        assert lines[0] == "phi,p_mathieu,p_vonmises_smallq,p_vonmises_largeq"
        assert len(lines) == 513
        spectrum = (tmp_path / "density_spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "l,psi_sq"
        ls = [int(row.split(",")[0]) for row in spectrum[1:]]
        assert 0 in ls and ls == sorted(ls)

    def test_flat_density_at_q_zero(self, capsys, tmp_path):
        dens = tmp_path / "d.csv"
        code, _, _ = run(capsys, "density", "--q", "0", "--grid", "64",
                         "--output", str(dens))
        assert code == 0
        rows = dens.read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals == pytest.approx([1.0 / (2.0 * np.pi)] * 64, abs=1e-12)

    def test_large_q_von_mises_column_agrees(self, capsys, tmp_path):
        dens = tmp_path / "d.csv"
        code, _, _ = run(capsys, "density", "--q", "100", "--grid", "1024",
                         "--output", str(dens))
        assert code == 0
        rows = [r.split(",") for r in dens.read_text().splitlines()[1:]]
        p_m = np.array([float(r[1]) for r in rows])
        p_lg = np.array([float(r[3]) for r in rows])
        assert np.max(np.abs(p_m - p_lg)) / np.max(p_m) < 0.02

    def test_kappa_only_density(self, capsys):
        code, out, _ = run(capsys, "density", "--kappa", "2.0")
        assert code == 0
        assert out.splitlines()[0] == "phi,p_vonmises"

    def test_coarse_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, "density", "--q", "1", "--grid", "32")
        assert code == 2

    def test_q_and_kappa_together_exit_2(self, capsys):
        code, _, _ = run(capsys, "density", "--q", "1", "--kappa", "1")
        assert code == 2

    def test_phi0_needs_kappa(self, capsys, tmp_path):
        # the parent dropped --phi0 silently; a config key is not checked
        code, out, err = run(capsys, "density", "--q", "1", "--phi0", "0.3")
        assert (code, out) == (2, "")
        assert err == "error: --phi0 needs --kappa\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 1, "phi0": 0.3}))
        code, out, _ = run(capsys, "density", "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, "density", "--q", "1")[1]

    def test_small_q_column_over_budget_names_q(self, capsys):
        # the Mathieu density is in budget; its von Mises comparison
        # column at kappa = q is not, and the user gave no kappa
        code, out, err = run(capsys, "density", "--q", "1e12", "--grid", "64")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --q 1000000000000.0 ")
        assert "p_vonmises_smallq" in err and "budget" in err

    @pytest.mark.parametrize("argv, header", [
        (("--q", "1e8", "--grid", "512"),
         "phi,p_mathieu,p_vonmises_smallq,p_vonmises_largeq"),
        (("--kappa", "1e8", "--grid", "512"), "phi,p_vonmises"),
    ], ids=["q-1e8", "kappa-1e8"])
    def test_support_wider_than_the_grid_runs(self, capsys, argv, header):
        # the von Mises state at kappa 1e8 has 70855 components, far more
        # than the 512 grid points; its density is folded, not refused
        code, out, _ = run(capsys, "density", *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == header and len(lines) == 513
        values = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    @pytest.mark.parametrize("argv", [("--q", "1", "--grid", "1000000000000000")])
    def test_phase_matrix_over_budget_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "density", *argv)
        assert code == 2
        assert out == ""
        assert "budget" in err


class TestEllipsometry:
    def test_brewster_null(self, capsys, tmp_path):
        stack = tmp_path / "stack.txt"
        brewster = np.rad2deg(np.arctan(1.5))
        stack.write_text(f"ambient 1.0\nsubstrate 1.5 0\nwavelength 632.8\n"
                         f"angle {brewster:.17g}\n")
        code, out, _ = run(capsys, "ellipsometry", "--stack", str(stack))
        assert code == 0
        doc = json.loads(out)
        assert doc["psi_deg"] == pytest.approx(0.0, abs=1e-10)
        assert abs(complex(doc["rho_re"], doc["rho_im"])) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_opaque_film_gives_finite_fields(self, capsys, tmp_path):
        stack = tmp_path / "stack.txt"
        stack.write_text("ambient 1.0\nlayer 2 1 1e6\nsubstrate 1.5 0.1\n"
                         "wavelength 500\nangle 17\n")
        code, out, _ = run(capsys, "ellipsometry", "--stack", str(stack))
        assert code == 0
        assert all(math.isfinite(v) for v in json.loads(out).values())

    @pytest.mark.filterwarnings("error")
    def test_sixty_absorbing_films_give_finite_fields(self, capsys, tmp_path):
        # no film is opaque alone, but together they are: the parent printed
        # NaN in all 8 fields and exited 0
        stack = tmp_path / "stack.txt"
        stack.write_text("ambient 1.0\n" + "layer 2 1 1200\n" * 60
                         + "substrate 1.5 0.1\nwavelength 500\nangle 17\n")
        code, out, _ = run(capsys, "ellipsometry", "--stack", str(stack))
        assert code == 0
        assert all(math.isfinite(v) for v in json.loads(out).values())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stack_text, code, message", [
        ("ambient 1.0\nlayer 0 0 10\nsubstrate 1.5 0.1\nwavelength 500\nangle 17\n", 2,
         "refractive index must be nonzero"),
        ("ambient 1.0\nsubstrate 1e200 0\nwavelength 500\nangle 17\n", 2,
         "under 1e150 in magnitude"),
        ("ambient 1.0\nlayer 1e-200 0 10\nsubstrate 1.5 0.1\nwavelength 500\nangle 17\n", 3,
         "vanishing admittance"),
        ("ambient 1.5\nsubstrate 1.5 0\nwavelength 500\nangle 0\n", 3,
         "s-polarized reflection vanishes"),
    ], ids=["zero-index", "huge-index", "tiny-index", "index-matched"])
    def test_degenerate_stacks_refused_without_nan(self, capsys, tmp_path, stack_text, code,
                                                   message):
        # the parent printed NaN for the first three and exited 0
        stack = tmp_path / "stack.txt"
        stack.write_text(stack_text)
        got, out, err = run(capsys, "ellipsometry", "--stack", str(stack))
        assert (got, out) == (code, "")
        assert message in err and "NaN" not in err

    @pytest.mark.parametrize("thickness", ["1e20", "1e308"])
    def test_film_past_the_phase_digits_exits_3(self, capsys, tmp_path, thickness):
        # a lossless film this thick once printed NaN (1e308 nm) or a
        # phase with no digits left (1e20 nm) and exited 0
        stack = tmp_path / "stack.txt"
        stack.write_text(f"ambient 1.0\nlayer 1.5 0 {thickness}\nsubstrate 1.5 0.1\n"
                         "wavelength 500\nangle 17\n")
        code, out, err = run(capsys, "ellipsometry", "--stack", str(stack))
        assert code == 3
        assert out == ""
        assert "2^52 rad" in err and "NaN" not in err

    def test_zero_thickness_film_byte_identical(self, capsys, tmp_path):
        bare, film = tmp_path / "bare.txt", tmp_path / "film.txt"
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        bare.write_text("ambient 1.0\nsubstrate 3.85 0.02\n"
                        "wavelength 632.8\nangle 70\n")
        film.write_text("ambient 1.0\nlayer 1.46 0.0 0.0\nsubstrate 3.85 0.02\n"
                        "wavelength 632.8\nangle 70\n")
        assert run(capsys, "ellipsometry", "--stack", str(bare),
                   "--output", str(out_a))[0] == 0
        assert run(capsys, "ellipsometry", "--stack", str(film),
                   "--output", str(out_b))[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_noise_bars_with_state(self, capsys, tmp_path):
        stack = tmp_path / "stack.txt"
        stack.write_text(STACK)
        code, out, _ = run(capsys, "ellipsometry", "--stack", str(stack),
                           "--family", "coherent", "--nbar", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["noise"]["sigma_delta"] == pytest.approx(0.1, rel=0.1)
        assert doc["noise"]["large_noise"] is False

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        stack = tmp_path / "bad.txt"
        stack.write_text("ambient 1.0\nwhat 1\n")
        code, _, _ = run(capsys, "ellipsometry", "--stack", str(stack))
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "ellipsometry",
                         "--stack", str(tmp_path / "nope.txt"))
        assert code == 2

    @pytest.mark.parametrize("line", ["layer 1.46 0.0 nan", "layer 1.46 0.0 inf",
                                      "layer nan 0.0 100.0"])
    def test_non_finite_film_exits_2(self, capsys, tmp_path, line):
        stack = tmp_path / "stack.txt"
        stack.write_text(STACK.replace("layer 1.46 0.0 100.0", line))
        code, _, err = run(capsys, "ellipsometry", "--stack", str(stack))
        assert code == 2
        assert "finite" in err


class TestMathieuTable:
    def test_even_family_dump(self, capsys):
        code, out, _ = run(capsys, "mathieu-table", "--q", "1", "--kmax", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,q,eigenvalue,j,coeff"
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(-0.4551386, abs=1e-6)

    def test_odd_branch_eigenvalues(self, capsys):
        code, out, _ = run(capsys, "mathieu-table", "--q", "0", "--kmax", "1",
                           "--odd")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,q,eigenvalue"
        assert [float(l.split(",")[2]) for l in lines[1:]] == [4.0, 16.0]

    @pytest.mark.parametrize("odd", [(), ("--odd",)])
    def test_negative_kmax_exits_2(self, capsys, odd):
        code, out, err = run(capsys, "mathieu-table", "--q", "1", "--kmax", "-1", *odd)
        assert code == 2
        assert out == ""
        assert "kmax must be >= 0" in err

    @staticmethod
    def _no_solves(monkeypatch):
        def solve(q, k):
            raise AssertionError(f"solved order {k}")
        monkeypatch.setattr(cli, "solve_even_mathieu", solve)
        monkeypatch.setattr(cli, "se_even_eigenvalue", solve)

    @pytest.mark.parametrize("odd", [(), ("--odd",)])
    def test_row_budget_refused_before_the_first_solve(self, capsys, monkeypatch, odd):
        self._no_solves(monkeypatch)
        code, out, err = run(capsys, "mathieu-table", "--q", "1", "--kmax", "1000000", *odd)
        assert code == 2
        assert out == ""
        assert "table rows" in err

    def test_row_budget_edge(self, capsys, monkeypatch):
        # at q = 0 the windows are 12 + 2k: orders 0..1017 sum to
        # 1018 * 1029 <= 2^20 rows, orders 0..1018 to 1019 * 1030 > 2^20
        monkeypatch.setattr(cli, "se_even_eigenvalue", lambda q, k: 0.0)
        code, out, _ = run(capsys, "mathieu-table", "--q", "0", "--kmax", "1017", "--odd")
        assert code == 0
        assert len(out.splitlines()) == 1019
        self._no_solves(monkeypatch)
        code, _, err = run(capsys, "mathieu-table", "--q", "0", "--kmax", "1018", "--odd")
        assert code == 2
        assert "table rows at k=1018" in err

    def test_table_streams_to_its_output(self, capsys, tmp_path):
        # rows go to the file as they come: one order's solution at a
        # time, not the 4.97 MB table and its join (21.7 MB traced before)
        path = tmp_path / "t.csv"
        assert main(["mathieu-table", "--q", "1", "--kmax", "0"]) == 0  # loads LAPACK
        capsys.readouterr()
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "mathieu-table", "--q", "1", "--kmax", "300",
                               "--output", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == ""
        assert peak < 2 * 2 ** 20
        lines = path.read_text().splitlines()
        assert lines[0] == "k,q,eigenvalue,j,coeff"
        assert len(lines) == 1 + sum(auto_truncation(1.0, k) for k in range(301))
        assert lines[-1].startswith("300,1,")

    @pytest.mark.parametrize("q", ["nan", "inf", "-1"])
    def test_bad_q_exits_2(self, capsys, q):
        code, out, err = run(capsys, "mathieu-table", "--q", q)
        assert code == 2
        assert out == ""
        assert "Mathieu parameter q must be" in err

    def test_window_over_truncation_budget_keeps_solver_message(self, capsys):
        code, out, err = run(capsys, "mathieu-table", "--q", "1e300")
        assert code == 2
        assert out == ""
        assert "Fourier window J=" in err


class TestFixedTolerance:
    def test_environment_does_not_loosen_the_tail_check(self, capsys, monkeypatch):
        # the tail tolerance is fixed: no variable reads an infinite one,
        # which once let a cutoff of 5 report n_mean 9.79 for nbar 100;
        # here a von Mises state at kappa 100 is clipped by the layer of 2
        monkeypatch.setenv("QELLIP_TOL", "inf")
        code, out, err = run(capsys, "sweep", "--family", "von_mises", "--kappa", "100",
                             "--nbar-list", "2,4,6,8")
        assert code == 3
        assert out == ""
        assert "truncation tail" in err and "exceeds tolerance 1.0e-10" in err


class _BrokenStdout:
    """A stdout whose ``write`` or ``flush`` fails as a full device does."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


class _Exited(Exception):
    pass


class TestStdoutFailure:
    """A failed write to stdout is a user error: exit 2 with an error line,
    never a traceback or an ignored exception at exit."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_exits_2(self, capsys, monkeypatch, failing):
        monkeypatch.setattr(sys, "stdout", _BrokenStdout(failing))
        code = main(["state", "--family", "coherent", "--nbar", "100"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: [Errno 28] No space left on device\n"

    @pytest.fixture
    def exit_code(self, monkeypatch):
        """Calls ``cli.run`` with ``os._exit`` caught; returns its code."""
        def _exit(code):
            raise _Exited(code)
        monkeypatch.setattr(cli.os, "_exit", _exit)

        def call():
            with pytest.raises(_Exited) as exc:
                cli.run()
            return exc.value.args[0]
        return call

    @pytest.mark.parametrize("code", [0, 2, 3])
    def test_run_exits_with_main_code(self, monkeypatch, exit_code, code):
        monkeypatch.setattr(cli, "main", lambda: code)
        assert exit_code() == code

    @pytest.mark.parametrize("code,expected", [(0, 2), (3, 3)])
    def test_run_maps_a_failed_flush_to_2(self, monkeypatch, exit_code, code, expected):
        monkeypatch.setattr(cli, "main", lambda: code)
        monkeypatch.setattr(sys, "stdout", _BrokenStdout("flush"))
        assert exit_code() == expected

    def test_run_leaves_exceptions_to_the_normal_exit(self, monkeypatch, exit_code):
        # exit_code keeps a faulty run from ending the test process
        def interrupted():
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "main", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.run()


#: One invocation of each kind the cli benchmark runs, and a report on
#: stdout: argv and the files it writes.
PROCESS_INVOCATIONS = {
    "state-stdout": (["state", "--family", "coherent", "--nbar", "100"], []),
    "state-coherent": (["state", "--family", "coherent", "--nbar", "123.456",
                        "--output", "out.json"], ["out.json"]),
    "state-squeezed": (["state", "--family", "squeezed", "--s", "0.7", "--nbar", "40",
                        "--output", "out.json"], ["out.json"]),
    "state-mathieu": (["state", "--family", "mathieu", "--q", "3.5", "--nbar", "80",
                       "--output", "out.json"], ["out.json"]),
    "state-von_mises": (["state", "--family", "von_mises", "--kappa", "4.2", "--nbar", "120",
                         "--output", "out.json"], ["out.json"]),
    "sweep-coherent": (["sweep", "--family", "coherent", "--nbar-list", "100,400,1600,2800",
                        "--target", "e_var", "--output", "sweep.csv",
                        "--fit-output", "fit.json"], ["sweep.csv", "fit.json"]),
    "sweep-mathieu": (["sweep", "--family", "mathieu", "--q", "3.5",
                       "--nbar-list", "40,80,160,320", "--target", "p_var",
                       "--output", "sweep.csv", "--fit-output", "fit.json"],
                      ["sweep.csv", "fit.json"]),
    "density": (["density", "--q", "3.5", "--grid", "512", "--output", "density.csv"],
                ["density.csv", "density_spectrum.csv"]),
    "ellipsometry": (["ellipsometry", "--stack", "film.stack", "--family", "coherent",
                      "--nbar", "123.456", "--output", "ell.json"], ["ell.json"]),
    "mathieu-table": (["mathieu-table", "--q", "3.5", "--kmax", "3", "--output", "table.csv"],
                      ["table.csv"]),
}


class TestProcessBoundary:
    """``python -m qellip.cli`` in a child process: its outputs reach their
    files and pipes whole, and its exit codes are main's, although the
    process ends by ``os._exit`` with no interpreter teardown."""

    @pytest.mark.parametrize("kind", PROCESS_INVOCATIONS)
    def test_files_match_in_process_main(self, capsys, monkeypatch, tmp_path, kind):
        argv, outputs = PROCESS_INVOCATIONS[kind]
        child, here = tmp_path / "child", tmp_path / "here"
        for d in (child, here):
            d.mkdir()
            (d / "film.stack").write_text(STACK)
        proc = qellip(*argv, cwd=child)
        monkeypatch.chdir(here)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
        names = sorted(p.name for p in child.iterdir())
        assert names == sorted(p.name for p in here.iterdir())
        assert names == sorted(["film.stack", *outputs])  # no .qellip-* temp file left
        for name in outputs:
            assert (child / name).read_bytes() == (here / name).read_bytes()

    def test_long_density_reaches_a_pipe_whole(self):
        proc = qellip("density", "--q", "1", "--grid", "100000")
        assert proc.returncode == 0
        assert proc.stdout.endswith("\n")
        lines = proc.stdout.splitlines()
        assert len(lines) == 100001
        assert all(line.count(",") == 3 for line in lines)

    @pytest.mark.parametrize("argv,code,message", [
        (["state", "--family", "coherent", "--nbar", "-5"], 2,
         "nbar must be finite and >= 0, got -5.0"),
        (["sweep", "--family", "von_mises", "--kappa", "100", "--nbar-list", "2,4,6,8"], 3,
         "truncation tail"),
    ])
    def test_error_exit_codes(self, tmp_path, argv, code, message):
        proc = qellip(*argv, "--output", "out", cwd=tmp_path)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_help_takes_the_normal_exit(self):
        proc = qellip("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: qellip")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_2(self):
        # block-buffered stdout: the write succeeds into the buffer and the
        # flush fails, inside main
        with open("/dev/full", "w") as full:
            proc = qellip("state", "--family", "coherent", "--nbar", "100", stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == "error: [Errno 28] No space left on device\n"
