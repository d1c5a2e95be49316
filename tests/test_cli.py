import importlib
import inspect
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    assemble_report,
)
from overheat import cli
from overheat.cli import main
from test_sweep import read_csv, readme_config_example

EVAL_ARGS = [
    "eval",
    "--R", "2", "--L", "2", "--C", "5e-5", "--M", "1",
    "--omega-c", "5", "--T1", "2", "--T2", "1",
]


def readme_commands() -> list[list[str]]:
    """Arguments of every `heat ...` command in README.md's `sh` blocks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "heat":
                commands.append(words[1:])
    return commands


def parse_report(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestEval:
    def test_closed_form_matches_library(self, capsys):
        assert main(EVAL_ARGS) == 0
        report = parse_report(capsys.readouterr().out)
        p = CircuitParams(2.0, 2.0, 5e-5, 1.0, 5.0)
        expected = assemble_report(
            p, BathPair.from_temperatures(2.0, 1.0), Method.CLOSED_FORM
        )
        assert report["method"] == "ClosedForm"
        assert float(report["q_classical"]) == expected.q_classical
        assert float(report["q_quantum"]) == expected.q_quantum
        assert float(report["q_total"]) == expected.q_total
        assert report["regime"] == expected.regime.tag.value
        assert int(report["warnings"]) == len(expected.validity_warnings)

    def test_quadrature_method_consistent_with_closed_form(self, capsys):
        assert main(EVAL_ARGS + ["--method", "ExactQuadrature"]) == 0
        exact = parse_report(capsys.readouterr().out)
        assert main(EVAL_ARGS) == 0
        closed = parse_report(capsys.readouterr().out)
        # gamma/omega_d = 1e4 here, deep in the overdamped regime; the cubic
        # transfer function still differs from the overdamped limit at ~5e-4
        assert float(exact["q_total"]) == pytest.approx(
            float(closed["q_total"]), rel=2e-3
        )

    def test_warning_lines_enumerated(self, capsys):
        args = [
            "eval",
            "--R", "2", "--L", "2", "--C", "1", "--M", "1",
            "--omega-c", "5", "--T1", "100", "--T2", "50",
        ]
        assert main(args) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["regime"] == "OutsideOverdamped"
        n = int(report["warnings"])
        assert n >= 1
        assert all(f"warning_{i}" in report for i in range(1, n + 1))

    def test_invalid_circuit_exits_1(self, capsys):
        args = list(EVAL_ARGS)
        args[args.index("--M") + 1] = "3"  # M >= L
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, extra", [("--T2", "1e-310", []), ("--T1", "1e300", ["--kb", "1e10"])]
    )
    def test_temperature_without_finite_beta_exits_1(self, capsys, flag, value, extra):
        # beta = 1/(kb*T) is inf or 0: refused at construction, not a numerical failure
        args = list(EVAL_ARGS) + extra
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        assert f"error: 1/(kb*{flag[2:]}) must be positive" in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, capsys):
        args = list(EVAL_ARGS) + ["--method", "LowTempAsymptotic"]
        args[args.index("--T1") + 1] = "1e100"
        assert main(args) == 2
        assert "numerical failure:" in capsys.readouterr().err

    def test_low_temp_overflow_names_t1(self, capsys):
        args = list(EVAL_ARGS) + ["--method", "LowTempAsymptotic"]
        args[args.index("--T1") + 1] = "1e100"
        assert main(args) == 2
        assert "numerical failure: T1^4 overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("omega_c", ["1e55", "1e80", "1e300"])
    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_huge_cutoff_prints_finite_values_or_exits_2(self, capsys, omega_c, method):
        # ExactQuadrature printed q_quantum=nan from omega_c ~ 4e52, with exit 0
        args = list(EVAL_ARGS) + ["--method", method]
        args[args.index("--omega-c") + 1] = omega_c
        code = main(args)
        captured = capsys.readouterr()
        if code == 0:
            report = parse_report(captured.out)
            for key in ("q_classical", "q_quantum", "q_total"):
                assert math.isfinite(float(report[key])), key
        else:
            assert code == 2
            assert "at omega_c = " in captured.err

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        # the package's own ArithmeticError (not an OverflowError) exits 2 too
        def vanishing(*args, **kwargs):
            raise ArithmeticError("mode polynomials vanish")

        monkeypatch.setattr(cli, "assemble_report", vanishing)
        assert main(EVAL_ARGS) == 2
        assert "numerical failure: mode polynomials vanish" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [m.value for m in Method])
    def test_underflowing_constant_term_exits_2_naming_it(self, capsys, method):
        # omega_plus omega_c underflows to 0: it printed "division by zero"
        args = ["eval", "--R", "1e-200", "--L", "1", "--C", "1", "--M", "0.5",
                "--omega-c", "1e-200", "--T1", "2", "--T2", "1", "--method", method]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "numerical failure: mode polynomials vanish at omega = 0: omega_plus omega_c" in err

    def test_underflowing_rc_exits_1_naming_it(self, capsys):
        # gamma = 1/(R C) raised ZeroDivisionError: "numerical failure", exit 2
        args = ["eval", "--R", "1e-200", "--L", "1", "--C", "1e-200", "--M", "0.5",
                "--omega-c", "1", "--T1", "2", "--T2", "1"]
        assert main(args) == 1
        assert "error: R*C must be positive and finite, got 0.0" in capsys.readouterr().err

    def test_overflowing_low_temp_law_exits_2(self, capsys):
        # the T^4 law read inf here: it printed q_total=inf with exit 0
        args = ["eval", "--R", "1e-160", "--L", "1", "--C", "1", "--M", "0.5",
                "--omega-c", "1", "--T1", "2", "--T2", "1", "--method", "LowTempAsymptotic"]
        assert main(args) == 2
        assert "numerical failure: the T^4 law overflows at omega_d = 1e-160" in (
            capsys.readouterr().err)

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["eval", "--R", "2"]) == 1

    def test_unknown_method_exits_1(self, capsys):
        assert main(EVAL_ARGS + ["--method", "Guesswork"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out


class TestSweep:
    def test_preset_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["sweep", "--preset", "fig3", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 25
        assert header[0] == "T1"
        assert "lowt_q_total" in header

    def test_preset_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--preset", "fig3", "--out", str(a)]) == 0
        assert main(["sweep", "--preset", "fig3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_flag_is_refused(self, tmp_path):
        # the package writes no plot script: demos/05_plot_sweep.py draws a CSV
        out = tmp_path / "fig3.csv"
        args = ["sweep", "--preset", "fig3", "--out", str(out), "--plot", str(tmp_path / "x.py")]
        assert main(args) == 1
        assert not out.exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sweep = gamma_over_omega_d\n"
            "start = 1e2\nstop = 1e4\npoints = 3\n"
            "methods = ClosedForm\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("M = 3\nL = 2\n", encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_grid_from_zero_exits_1(self, tmp_path, capsys):
        # gamma/omega_d = 0 is a config error, not a division by zero at run time
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("spacing = linear\nstart = 0\nstop = 10\n", encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["sweep", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1

    def test_config_and_preset_conflict_exits_1(self, tmp_path):
        code = main(
            ["sweep", "--config", "x", "--preset", "fig3", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # the README's command lines stay in step with the CLI
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_sweep.cfg").write_text(readme_config_example(), encoding="utf-8")
    commands = readme_commands()
    assert {args[0] for args in commands} == {"eval", "sweep"}
    for args in commands:
        assert main(args) == 0, " ".join(["heat", *args])


def test_readme_python_blocks_run(capsys):
    # the README's library examples stay in step with the API
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


# The package for a child interpreter, whether or not it is installed.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "overheat.cli", *EVAL_ARGS],
            capture_output=True,
            text=True,
            env=SRC_ENV,
        )
        assert proc.returncode == 0
        assert "q_total=" in proc.stdout

    def test_console_script(self):
        exe = shutil.which("heat")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "eval" in proc.stdout

    def test_console_script_entry_point(self, capsys):
        # the entry point that pyproject.toml declares for `heat`, resolved and
        # run in process, so it is checked where the script is not installed
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["heat"]
        assert target == "overheat.cli:main"
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert callable(entry)
        assert entry(["--help"]) == 0
        assert "eval" in capsys.readouterr().out


def test_import_does_not_load_scipy():
    # scipy's import takes most of a second; the package and the heat CLI
    # start without it (it is a test dependency only)
    code = "import overheat, overheat.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=SRC_ENV)


def test_heat_exact_does_not_load_numpy_ma():
    # np.union1d, in the grid build, imported numpy.ma: 11-13 ms and 1.3 MB
    # of a process's first heat_exact call
    code = (
        "import overheat as oh, sys; "
        "p = oh.CircuitParams(2.0, 2.0, 5e-5, 1.0, 5.0); "
        "oh.heat_exact(p, oh.BathPair.from_temperatures(2.0, 1.0)); "
        "assert 'numpy.ma' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=SRC_ENV)


def test_public_api():
    # every exported name resolves, and the test-only oracles stay out of the
    # package: one route per job
    import overheat

    for name in overheat.__all__:
        assert hasattr(overheat, name), name
    removed = {
        "g12", "trace_f12", "coth_via_digamma",
        "heat_quantum_high_temp", "heat_high_temp_total", "derive_scales",
        "read_csv", "emit_plot_script",
    }
    assert removed.isdisjoint(overheat.__all__)
    assert not any(hasattr(overheat, name) for name in removed)
    assert not hasattr(overheat.model, "derive_scales")
    # the circuit carries its scales: no public function takes them separately
    for name in overheat.__all__:
        obj = getattr(overheat, name)
        if inspect.isfunction(obj):
            for param in inspect.signature(obj).parameters.values():
                assert "DerivedScales" not in str(param.annotation), (name, param.name)
