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
    derive_scales,
    read_csv,
)
from overheat import cli
from overheat.cli import main
from test_sweep import readme_config_example

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
            p, derive_scales(p), BathPair.from_temperatures(2.0, 1.0), Method.CLOSED_FORM
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

    def test_numerical_failure_exits_2(self, capsys):
        args = list(EVAL_ARGS) + ["--method", "LowTempAsymptotic"]
        args[args.index("--T1") + 1] = "1e100"
        assert main(args) == 2
        assert "numerical failure:" in capsys.readouterr().err

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        # the package's own ArithmeticError (not an OverflowError) exits 2 too
        def vanishing(*args, **kwargs):
            raise ArithmeticError("mode polynomials vanish")

        monkeypatch.setattr(cli, "assemble_report", vanishing)
        assert main(EVAL_ARGS) == 2
        assert "numerical failure: mode polynomials vanish" in capsys.readouterr().err

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

    def test_plot_flag_writes_script(self, tmp_path):
        out = tmp_path / "fig3.csv"
        plot = tmp_path / "fig3_plot.py"
        args = ["sweep", "--preset", "fig3", "--out", str(out), "--plot", str(plot)]
        assert main(args) == 0
        text = plot.read_text(encoding="utf-8")
        compile(text, str(plot), "exec")
        assert "fig3.csv" in text

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


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "overheat.cli", *EVAL_ARGS],
            capture_output=True,
            text=True,
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


def test_import_does_not_load_scipy():
    # scipy's import takes most of a second; the package and the heat CLI
    # start without it (it is a test dependency only)
    code = "import overheat, overheat.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_public_api():
    # every exported name resolves, and the test-only oracles stay out of the
    # package: one route per job
    import overheat

    for name in overheat.__all__:
        assert hasattr(overheat, name), name
    removed = {
        "g12", "trace_f12", "coth_via_digamma",
        "heat_quantum_high_temp", "heat_high_temp_total",
    }
    assert removed.isdisjoint(overheat.__all__)
    assert not any(hasattr(overheat, name) for name in removed)
