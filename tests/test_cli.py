import argparse
import importlib.util
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from spde_moments import cli
from spde_moments import moments as mm
from spde_moments.cli import _build_parser, figure_rows, locate_crossing, main
from spde_moments.errors import ResultOverflow
from spde_moments.model import DerivedConstants, ModelParams, dalang_bound, dalang_satisfied

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def readme_examples() -> list[list[str]]:
    """argv of every `spde-moments ...` line in the README's CLI section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"\\\n\s*", " ", section)
    return [
        shlex.split(line)[1:]
        for line in section.splitlines()
        if line.strip().startswith("spde-moments ")
    ]


class TestCheckDalang:
    def test_satisfied(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-dalang", "--alpha", "2", "--beta", "1", "--gamma", "0", "--dim", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["satisfied"] is True
        assert "d < " in payload["inequality"]
        assert payload["params"]["alpha"] == 2.0

    def test_violated_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "check-dalang", "--alpha", "2", "--beta", "0.6")
        assert code == 2
        assert json.loads(out)["satisfied"] is False

    @pytest.mark.parametrize(
        "params", [(2.0, 0.6, 0.0, 1), (1.5, 1.3, 0.2, 2), (2.0, 2.0, 0.0, 2), (3.0, 2.0, 0.4, 3)]
    )
    def test_inequality_reads_dalang_bound(self, capsys, params):
        alpha, beta, gamma, dim = params
        p = ModelParams(alpha, beta, gamma, dim=dim)
        code, out, _ = run_cli(
            capsys, "check-dalang", "--alpha", str(alpha), "--beta", str(beta),
            "--gamma", str(gamma), "--dim", str(dim),
        )
        payload = json.loads(out)
        assert float(payload["inequality"].rsplit("= ", 1)[1]) == dalang_bound(p)
        assert payload["satisfied"] is dalang_satisfied(p)
        assert code == (0 if dalang_satisfied(p) else 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("second-moment", "--t-max", "nan"),
        ("pth-bound", "--p", "nan"),
        ("figures", "--family", "sheswe", "--beta-grid", "0.5:nan:0.1"),
        ("simulate", "--family", "she", "--paths", "10", "--t-max", "nan"),
        ("volterra", "--rtol", "nan"),
        ("volterra", "--rtol", "-1"),
        ("lyapunov", "--lambda", "nan"),
        ("second-moment", "--u0", "nan"),
        ("constants", "--gamma", "nan"),
        # sizes numpy refuses at once, or (2**63) turns into an empty array
        ("figures", "--family", "sheswe", "--beta-grid", "0.1:0.2:1e-300"),
        ("figures", "--family", "sheswe", "--beta-grid", "0:1:1e-19"),
        ("figures", "--family", "sheswe", "--beta-grid=-1e308:1e308:1"),
        ("second-moment", "--n-points", "100000000000000000000"),
        ("second-moment", "--n-points", str(2**63)),
    ],
    ids=" ".join,
)
def test_non_finite_or_bad_input_is_a_validation_error(capsys, argv):
    # not a traceback, not a silent pass, and not ResultOverflow,
    # DalangViolated or StepTooCoarse, which describe valid input
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] in ("InvalidParams", "ValidationError")


@pytest.mark.parametrize(
    "command", ["constants", "second-moment", "volterra", "lyapunov", "pth-bound", "chaos"]
)
def test_dalang_gate_has_one_wording(capsys, command):
    code, out, err = run_cli(capsys, command, "--alpha", "1", "--beta", "1.5", "--dim", "3")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": {
            "type": "DalangViolated",
            "message": "Dalang's condition fails for alpha=1.0, beta=1.5, gamma=0.0, d=3",
        }
    }


class TestConstants:
    def test_she(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--alpha", "2", "--beta", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta"] == -0.5
        assert abs(payload["big_theta"] - 1 / math.sqrt(4 * math.pi)) < 1e-8

    def test_large_gamma(self, capsys):
        # Theta needs E_{1,91} at values near 1/Gamma(91) ~ 1e-139
        code, out, _ = run_cli(capsys, "constants", "--gamma", "90")
        assert code == 0
        assert 0.0 < json.loads(out)["big_theta"] < 1e-270
        code, _, err = run_cli(capsys, "constants", "--gamma", "100")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ResultOverflow"

    def test_large_gamma_base_through_lgamma(self, capsys):
        # Gamma(theta + 1) = Gamma(180.5) overflows; lambda^2 Theta Gamma(180.5)
        # = 2.28e52 does not, and the output is strict JSON
        code, out, _ = run_cli(capsys, "constants", "--gamma", "90")
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["theta"] == 179.5
        want = math.exp(math.log(payload["big_theta"]) + math.lgamma(180.5))
        assert abs(payload["lyapunov_base"] - want) <= 1e-12 * want
        assert abs(payload["lyapunov_base"] / 2.28e52 - 1.0) < 1e-2

    def test_large_gamma_second_moment_through_lgamma(self, capsys):
        # Theta Gamma(180.5) t^180.5 is tiny although Gamma(180.5) overflows,
        # so E[u^2] is close to 1 instead of a ResultOverflow
        code, out, _ = run_cli(capsys, "second-moment", "--gamma", "90", "--t-max", "0.5",
                               "--n-points", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == 2
        p = ModelParams(2, 1, 90, 1, 1, 1)
        for t, value, _ in rows:
            assert math.isfinite(float(value))
            want = math.exp(mm.second_moment_log(p, float(t)))
            assert abs(float(value) - want) <= 1e-13 * want

    def test_contour_weight_overflow_is_a_json_error(self, capsys):
        # E_{1,130} on the negative axis used to raise a raw OverflowError in
        # the contour; now Theta is reported below the double range
        code, out, err = run_cli(capsys, "constants", "--gamma", "129")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "ResultOverflow"

    def test_non_finite_payload_is_an_overflow_error(self, capsys, monkeypatch):
        forced = DerivedConstants(theta=-0.5, big_theta=math.nan, lyapunov_base=math.inf)
        monkeypatch.setattr(cli, "derived_constants", lambda p: forced)
        code, out, err = run_cli(capsys, "constants", "--alpha", "2", "--beta", "1")
        assert (code, out) == (ResultOverflow.exit_code, "")
        assert json.loads(err)["error"]["type"] == "ResultOverflow"

    def test_dalang_gate_is_clean(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--alpha", "2", "--beta", "0.6")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DalangViolated"


class TestCurveCommands:
    def test_second_moment_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "second-moment", "--alpha", "2", "--beta", "1",
            "--t-max", "0.5", "--n-points", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# alpha=2.0 beta=1.0")
        assert lines[1] == "t,value,method"
        t, v, method = lines[-1].split(",")
        assert method == "closed-form"
        assert abs(float(v) - mm.she_second_moment(1, 1, 1, 0.5)) < 1e-12

    def test_byte_stability(self, capsys):
        args = ["second-moment", "--alpha", "2", "--beta", "1", "--t-max", "1", "--n-points", "8"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("second-moment", "--t-max", "5000"),
            ("volterra", "--t-max", "5000", "--n-points", "1000"),
            ("figures", "--family", "sheswe", "--beta-grid", "0.668:0.668:0.1"),
            ("pth-bound", "--t", "5000"),
            ("chaos", "--alpha", "2", "--beta", "1", "--lambda", "1e100", "--k", "4"),
        ],
        ids=" ".join,
    )
    def test_overflow_reported(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ResultOverflow"

    def test_volterra_step_too_coarse_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "volterra", "--t-max", "1", "--n-points", "16", "--rtol", "1e-12"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["type"] == "StepTooCoarse"

    def test_json_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "second-moment", "--beta", "1.5", "--u1", "0.5", "--t-max", "0.5",
            "--n-points", "4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["params", "method", "t", "value"]
        assert payload["params"]["u1"] == 0.5
        assert payload["method"] == "closed-form"
        assert payload["t"] == [0.125, 0.25, 0.375, 0.5]
        p = ModelParams(2.0, 1.5, u1=0.5)
        assert payload["value"] == [mm.second_moment(p, t) for t in payload["t"]]

    def test_volterra_matches_closed(self, capsys):
        code, out, _ = run_cli(
            capsys, "volterra", "--alpha", "2", "--beta", "1",
            "--t-max", "1.0", "--n-points", "512",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[2:]]
        t, v = float(rows[-1][0]), float(rows[-1][1])
        assert rows[-1][2] == "volterra"
        assert abs(v - mm.she_second_moment(1, 1, 1, t)) / v < 1e-3


class TestScalarCommands:
    def test_lyapunov(self, capsys):
        code, out, _ = run_cli(capsys, "lyapunov", "--alpha", "2", "--beta", "2", "--nu", "2")
        assert code == 0
        assert abs(json.loads(out)["second_lyapunov"] - 2**-0.5) < 1e-9

    def test_pth_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "pth-bound", "--alpha", "2", "--beta", "1", "--p", "2", "--t", "1"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["rate_exponent"] == 3.0
        assert abs(payload["pth_lyapunov_upper"] - 0.25) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_pth_bound_at_p2_is_the_curve_end(self, capsys, seed):
        # the benchmark's curves plan requires the p = 2 bound to be at least
        # the last point of the closed-form curve; the two are equal, so
        # check the bits on the plan's own jittered inputs
        path = ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        (ops,) = workloads.plan("curves", seed, 1)
        argv = {(op["key"], op["check"]): op["argv"] for op in ops if "key" in op}
        for tid in range(len(workloads.CURVE_POOL)):
            _, curve, _ = run_cli(capsys, *argv[f"tuple{tid}", "second-moment"])
            code, out, _ = run_cli(capsys, *argv[f"tuple{tid}", "pth-bound"])
            assert code == 0
            last = float(curve.splitlines()[-1].split(",")[1])
            assert json.loads(out)["pth_moment_upper_sq"] == last

    @pytest.mark.parametrize(
        "argv",
        [
            ("pth-bound", "--p", "0"),
            ("second-moment", "--t-max", "0"),
            ("simulate", "--family", "she", "--paths", "0", "--dx", "0.1",
             "--dt", "0.002", "--t-max", "0.01", "--domain-half-width", "1.0"),
            ("lyapunov", "--config", "no-such-dir/params.cfg"),
            # off the characteristic lattice: nu = 2 needs dt = dx
            ("simulate", "--family", "swe", "--alpha", "2", "--beta", "2", "--nu", "2",
             "--dx", "0.04", "--dt", "0.02", "--paths", "10"),
        ],
        ids=" ".join,
    )
    def test_explicit_value_is_validated(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] in ("InvalidParams", "ValidationError")

    @pytest.mark.parametrize(
        "argv",
        [
            ("diagrams", "--p", "6.5", "--m", "7"),
            ("lyapunov", "--dx", "0.1"),
            ("diagrams", "--partition", "2,2", "--beta", "5"),
            ("diagrams", "--partition", "2,a"),
        ],
        ids=" ".join,
    )
    def test_parser_rejects(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error: " in err and not err.startswith("{")

    def test_chaos_k_zero(self, capsys):
        code, out, _ = run_cli(capsys, "chaos", "--u0", "2", "--k", "0")
        assert code == 0
        assert json.loads(out)["terms"] == [4.0]

    def test_chaos_negative_k_rejected(self, capsys):
        code, out, err = run_cli(capsys, "chaos", "--k", "-1")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "seed",
        # level k = 1 draws with seed + 1, which is 2**64 for the second value
        ["-5", str(2**64 - 1)],
    )
    def test_chaos_seed_out_of_range_rejected(self, capsys, seed):
        code, out, err = run_cli(capsys, "chaos", "--mc-samples", "10", "--seed", seed)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "InvalidParams"

    def test_chaos(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--alpha", "2", "--beta", "1", "--t", "1", "--k", "2",
            "--mc-samples", "2000", "--seed", "4",
        )
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["terms"][1] - 1 / math.sqrt(math.pi)) < 1e-9
        assert len(payload["mc"]) == 3


class TestDiagramsCommand:
    def test_partition_listing(self, capsys):
        code, out, _ = run_cli(capsys, "diagrams", "--partition", "2,2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# admissible diagrams for n=(2, 2): 2"
        assert len(lines) == 3

    def test_balanced_counts(self, capsys):
        code, out, _ = run_cli(capsys, "diagrams", "--p", "6", "--m", "7", "--count-only")
        assert code == 0
        assert "lower bound 36" in out

    def test_balanced_listing(self, capsys):
        code, out, _ = run_cli(capsys, "diagrams", "--p", "4", "--m", "3")
        assert code == 0
        header, *lines = out.splitlines()
        assert header == "# balanced diagrams p=4 m=3: 8 (lower bound 2)"
        assert len(lines) == 8
        assert all(line.startswith("4 3 | ") for line in lines)

    def test_needs_arguments(self, capsys):
        code, _, err = run_cli(capsys, "diagrams")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValidationError"


class TestSimulateCommand:
    def test_swe_csv_and_sidecar(self, tmp_path, capsys):
        out_file = tmp_path / "swe.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--family", "swe", "--alpha", "2", "--beta", "2",
            "--nu", "2", "--dx", "0.04", "--dt", "0.04", "--t-max", "0.4",
            "--domain-half-width", "0.8", "--paths", "200", "--seed", "9",
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[1] == "t,value,method"
        assert lines[2].endswith("monte-carlo")
        sidecar = json.loads(out_file.with_suffix(".json").read_text())
        assert sidecar["n_paths"] == 200
        assert sidecar["seed"] == 9
        assert len(sidecar["stderr"]) == 1

    def test_swe_default_dt_on_lattice(self, capsys):
        # without --dt the wave scheme steps dt = dx/sqrt(nu/2)
        code, out, err = run_cli(
            capsys, "simulate", "--family", "swe", "--alpha", "2", "--beta", "2",
            "--nu", "2", "--dx", "0.02", "--t-max", "0.1", "--domain-half-width", "0.3",
            "--paths", "50",
        )
        assert code == 0, err
        sidecar = json.loads(out.split("monte-carlo\n", 1)[1])
        assert sidecar["dt"] == 0.02

    def test_swe_explicit_dt_off_lattice(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--family", "swe", "--alpha", "2", "--beta", "2",
            "--nu", "2", "--dx", "0.02", "--dt", "0.01", "--t-max", "0.1",
            "--domain-half-width", "0.3", "--paths", "50",
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InvalidParams"

    def test_sidecar_would_overwrite_curve(self, tmp_path, capsys):
        out_file = tmp_path / "s.json"
        code, out, err = run_cli(
            capsys, "simulate", "--family", "swe", "--alpha", "2", "--beta", "2",
            "--nu", "2", "--dx", "0.04", "--dt", "0.04", "--t-max", "0.4",
            "--domain-half-width", "0.8", "--paths", "10", "--format", "json",
            "--out", str(out_file),
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"
        assert list(tmp_path.iterdir()) == []

    def test_seeded_byte_stability(self, tmp_path, capsys):
        args = [
            "simulate", "--family", "swe", "--alpha", "2", "--beta", "2", "--nu", "2",
            "--dx", "0.04", "--dt", "0.04", "--t-max", "0.4",
            "--domain-half-width", "0.8", "--paths", "100", "--seed", "21",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_stability_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--family", "she", "--alpha", "2", "--beta", "1",
            "--dx", "0.1", "--dt", "0.01", "--t-max", "0.1", "--paths", "10",
            "--domain-half-width", "1.0",
        )
        assert code == 4
        assert json.loads(err)["error"]["type"] == "StabilityViolated"


class TestFiguresCommand:
    def test_sheswe_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "figures", "--family", "sheswe", "--nu", "1", "--lambda", "1",
            "--beta-grid", "1.0:2.0:1.0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# family=sheswe nu=1.0 lambda=1.0"
        assert lines[1] == "x,y,series"
        rows = {(l.split(",")[0], l.split(",")[2]): float(l.split(",")[1]) for l in lines[2:]}
        assert abs(rows[("1", "theta_big")] - 0.2820948) < 1e-3
        assert abs(rows[("2", "theta_big")] - 0.706991) < 1e-3

    def test_tfspde_lyapunov_endpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "figures", "--family", "tfspde", "--nu", "2", "--lambda", "1",
            "--beta-grid", "1.0:2.0:1.0",
        )
        assert code == 0
        rows = {
            (l.split(",")[0], l.split(",")[2]): float(l.split(",")[1])
            for l in out.splitlines()[2:]
        }
        assert abs(rows[("1", "lyapunov")] - 0.125) < 1e-6
        assert abs(rows[("2", "lyapunov")] - 2**-0.5) < 1e-6

    @pytest.mark.parametrize(
        "argv",
        [
            ("figures", "--family", "sfhe", "--beta-grid", "9:9:1"),
            ("figures", "--family", "sheswe", "--alpha-grid", "9:9:1"),
            ("figures", "--family", "tfspde", "--alpha-grid", "1.05:5:0.05"),
        ],
        ids=" ".join,
    )
    def test_grid_flag_of_another_family(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == f"{argv[3]} does not apply to --family {argv[2]}"

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "figures", "--family", "she")
        assert code == 2
        assert "error" in err


class TestConfigFile:
    def test_config_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("alpha=2\nbeta=1\nnu=4\nlambda=1\n")
        code, out, _ = run_cli(capsys, "lyapunov", "--config", str(cfg))
        assert code == 0
        assert abs(json.loads(out)["second_lyapunov"] - 1.0 / 16.0) < 1e-9
        code, out, _ = run_cli(capsys, "lyapunov", "--config", str(cfg), "--nu", "2")
        assert abs(json.loads(out)["second_lyapunov"] - 0.125) < 1e-9

    def test_u1_ignored_warning(self, capsys):
        # u1 at beta <= 1 is rejected, not dropped with a warning
        code, out, err = run_cli(
            capsys, "constants", "--alpha", "2", "--beta", "1", "--u1", "3"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": {
                "type": "InvalidParams",
                "message": "u1 must be 0 for beta <= 1 (no initial velocity), got 3.0",
            }
        }


class TestCrossingHelper:
    def test_locate_crossing_linear(self):
        rows = [(0.0, 0.0, "a"), (1.0, 1.0, "a"), (0.0, 0.5, "b"), (1.0, 0.5, "b")]
        x, y = locate_crossing(rows, "a", "b")
        assert x == pytest.approx(0.5)
        assert y == pytest.approx(0.5)

    def test_figure_rows_skip_non_dalang(self):
        rows = figure_rows("sheswe", 1.0, 1.0, [0.5])
        series = {s for _, _, s in rows}
        assert series == {"theta_big"}  # beta=0.5 violates existence


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(readme_examples()) >= 10

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_example_parses(self, argv):
        ns = _build_parser().parse_args(argv)
        assert ns.command == argv[0]


# every settable option of every subcommand, (flag, dest, type, default,
# choices), in the parser's order: 113 (subcommand, flag) pairs
_MODEL_OPTIONS = [
    ("--config", "config", None, None, None),
    ("--alpha", "alpha", float, None, None),
    ("--beta", "beta", float, None, None),
    ("--gamma", "gamma", float, None, None),
    ("--lambda", "lam", float, None, None),
    ("--nu", "nu", float, None, None),
    ("--dim", "dim", int, None, None),
    ("--u0", "u0", float, None, None),
    ("--u1", "u1", float, None, None),
    ("--out", "out", None, None, None),
]
_OPTIONS = {
    "check-dalang": _MODEL_OPTIONS,
    "constants": _MODEL_OPTIONS,
    "second-moment": _MODEL_OPTIONS + [
        ("--t-max", "t_max", float, 1.0, None),
        ("--format", "format", None, "csv", ["csv", "json"]),
        ("--n-points", "n_points", int, 256, None),
    ],
    "volterra": _MODEL_OPTIONS + [
        ("--t-max", "t_max", float, 1.0, None),
        ("--format", "format", None, "csv", ["csv", "json"]),
        ("--n-points", "n_points", int, 256, None),
        ("--rtol", "rtol", float, None, None),
    ],
    "lyapunov": _MODEL_OPTIONS,
    "pth-bound": _MODEL_OPTIONS + [
        ("--p", "p", float, 2.0, None),
        ("--t", "t", float, 1.0, None),
    ],
    "chaos": _MODEL_OPTIONS + [
        ("--t", "t", float, 1.0, None),
        ("--k", "k", int, 4, None),
        ("--mc-samples", "mc_samples", int, None, None),
        ("--seed", "seed", int, 0, None),
    ],
    "diagrams": [
        ("--out", "out", None, None, None),
        ("--partition", "partition", cli.partition_sizes, None, None),
        ("--p", "p", int, None, None),
        ("--m", "m", int, None, None),
        ("--count-only", "count_only", None, False, None),
    ],
    "simulate": _MODEL_OPTIONS + [
        ("--family", "family", None, None, ["she", "swe"]),
        ("--t-max", "t_max", float, 0.5, None),
        ("--format", "format", None, "csv", ["csv", "json"]),
        ("--probes", "probes", float, None, None),
        ("--dx", "dx", float, 0.02, None),
        ("--dt", "dt", float, None, None),
        ("--domain-half-width", "domain_half_width", float, 1.2, None),
        ("--paths", "paths", int, 10000, None),
        ("--seed", "seed", int, 0, None),
    ],
    "figures": [
        ("--out", "out", None, None, None),
        ("--family", "family", None, None, ["sheswe", "tfspde", "sfhe"]),
        ("--nu", "nu", float, 1.0, None),
        ("--lambda", "lam", float, 1.0, None),
        ("--beta-grid", "beta_grid", None, None, None),
        ("--alpha-grid", "alpha_grid", None, None, None),
    ],
}


def test_option_inventory():
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: [
            (" ".join(a.option_strings), a.dest, a.type, a.default, a.choices)
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sp in sub.choices.items()
    }
    assert found == _OPTIONS
    assert sum(map(len, found.values())) == 113
