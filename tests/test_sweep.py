import math
import re
from pathlib import Path

import numpy as np
import pytest

from overheat import (
    BathPair,
    CircuitParams,
    ConfigError,
    Grid,
    Method,
    SweepSpec,
    assemble_report,
    classify_regime,
    derive_scales,
    emit_csv,
    emit_plot_script,
    parse_config,
    preset_specs,
    read_csv,
    run_sweep,
)
from overheat import quadrature, sweep
from overheat.cli import main


def readme_config_example() -> str:
    """The `ini` config example in README.md."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (example,) = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    return example


class TestGrid:
    def test_log_values(self):
        g = Grid(1.0, 100.0, 3, "log")
        assert g.values() == pytest.approx((1.0, 10.0, 100.0), rel=1e-14)

    def test_linear_values(self):
        g = Grid(0.0, 1.0, 5, "linear")
        assert g.values() == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0), abs=1e-15)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(start=2.0, stop=1.0, points=5), "start < stop"),
            (dict(start=1.0, stop=2.0, points=1), "points"),
            (dict(start=0.0, stop=2.0, points=5, spacing="log"), "start > 0"),
            (dict(start=1.0, stop=2.0, points=5, spacing="cubic"), "spacing"),
        ],
    )
    def test_invariants(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            Grid(**kwargs)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        spec = parse_config("")
        assert spec.sweep_variable == "gamma_over_omega_d"
        assert spec.grid == Grid(1.0, 1e5, 20, "log")
        assert spec.methods == (Method.EXACT_QUADRATURE, Method.CLOSED_FORM)
        assert (spec.R, spec.L, spec.M, spec.omega_c) == (2.0, 2.0, 1.0, 5.0)
        assert (spec.T1, spec.T2) == (2.0, 1.0)

    def test_comments_and_blanks(self):
        spec = parse_config(
            """
            # full-line comment
            T1 = 4.0   # trailing comment

            points = 7
            """
        )
        assert spec.T1 == 4.0
        assert spec.grid.points == 7

    def test_m_not_below_l_rejected(self):
        with pytest.raises(ConfigError, match="M < L"):
            parse_config("M = 3\nL = 2\n")

    def test_log_spacing_needs_positive_start(self):
        with pytest.raises(ConfigError, match="start > 0"):
            parse_config("spacing = log\nstart = 0\nstop = 10\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("T1 = 2\nresistance = 7\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("T1 = 2\nT2 = 1\njust words\n")

    def test_unparseable_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("points = many\n")

    def test_methods_list(self):
        spec = parse_config("methods = ClosedForm, LowTempAsymptotic\n")
        assert spec.methods == (Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config("methods = ClosedForm, Magic\n")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'mode'"):
            parse_config("mode = Heroic\n")

    def test_key_set_twice_rejected(self):
        # a repeated key is a typo, not an override
        with pytest.raises(ConfigError, match="line 2: 'T1' already set on line 1"):
            parse_config("T1 = 2\nT1 = 3\n")
        with pytest.raises(ConfigError, match="line 4: 'methods' already set on line 1"):
            parse_config("methods = ClosedForm\n\n# again\nmethods = ClosedForm\n")

    def test_t2_ratio_requires_t1_sweep(self):
        with pytest.raises(ConfigError, match="t2_over_t1"):
            parse_config("t2_over_t1 = 0.5\n")
        spec = parse_config("sweep = T1\nt2_over_t1 = 0.5\nstart = 0.01\nstop = 1\n")
        assert spec.t2_over_t1 == 0.5

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigError, match="method listed twice: ClosedForm"):
            parse_config("methods = ClosedForm, LowTempAsymptotic, ClosedForm\n")
        with pytest.raises(ConfigError, match="method listed twice: ExactQuadrature"):
            SweepSpec(methods=(Method.EXACT_QUADRATURE, Method.EXACT_QUADRATURE))

    def test_readme_example_gives_defaults(self):
        assert parse_config(readme_config_example()) == SweepSpec()

    def test_readme_example_sets_every_key_but_t2_over_t1(self):
        lines = (line.split("#", 1)[0] for line in readme_config_example().splitlines())
        keys = {line.partition("=")[0].strip() for line in lines if line.strip()}
        assert keys == set(sweep._KEY_PARSERS) - {"t2_over_t1"}

    def test_regime_margin_is_not_settable(self, capsys):
        # the margin is the constant model.SAFETY_FACTOR: neither a config
        # key nor an eval flag sets it
        with pytest.raises(ConfigError, match="line 1: unknown key 'safety_factor'"):
            parse_config("safety_factor = 10\n")
        args = [
            "eval", "--R", "2", "--L", "2", "--C", "5e-5", "--M", "1",
            "--omega-c", "5", "--T1", "2", "--T2", "1", "--safety-factor", "10",
        ]
        assert main(args) == 1

    def test_transfer_mode_is_not_settable(self, circuit, scales, baths):
        # ExactQuadrature is always the split of the full cubic model; the
        # transfer mode is chosen only in the library functions
        with pytest.raises(ConfigError, match="line 1: unknown key 'mode'"):
            parse_config("mode = OverdampedLinear\n")
        args = [
            "eval", "--R", "2", "--L", "2", "--C", "5e-5", "--M", "1",
            "--omega-c", "5", "--T1", "2", "--T2", "1",
            "--method", "ExactQuadrature", "--mode", "OverdampedLinear",
        ]
        assert main(args) == 1
        with pytest.raises(TypeError, match="mode"):
            SweepSpec(mode="OverdampedLinear")
        with pytest.raises(TypeError, match="mode"):
            assemble_report(
                circuit, scales, baths, Method.EXACT_QUADRATURE, mode="OverdampedLinear"
            )

    @pytest.mark.parametrize("value", ["0.5", "nan"])
    def test_bad_safety_factor_rejected(self, value):
        # the margin is not settable, so a bad value is refused like any other
        with pytest.raises(ConfigError, match="unknown key 'safety_factor'"):
            parse_config(f"safety_factor = {value}\n")
        with pytest.raises(TypeError, match="safety_factor"):
            SweepSpec(safety_factor=float(value))

    @pytest.mark.parametrize("start", ["0", "-1"])
    @pytest.mark.parametrize("variable", ["gamma_over_omega_d", "T1", "T2"])
    def test_swept_values_must_be_positive(self, variable, start):
        # a linear grid may start at or below 0; no swept quantity may
        with pytest.raises(ConfigError, match=f"{variable} must be positive"):
            parse_config(f"sweep = {variable}\nspacing = linear\nstart = {start}\nstop = 10\n")
        with pytest.raises(ConfigError, match=f"{variable} must be positive"):
            SweepSpec(sweep_variable=variable, grid=Grid(float(start), 10.0, 3, "linear"))


def small_spec(**overrides):
    base = dict(
        sweep_variable="gamma_over_omega_d",
        grid=Grid(1e2, 1e4, 4, "log"),
        methods=(Method.CLOSED_FORM,),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        spec = small_spec()
        rows = run_sweep(spec)
        assert len(rows) == 4
        xs = [r.swept_value for r in rows]
        assert xs == sorted(xs)
        for row in rows:
            assert len(row.cells) == 3
            assert all(math.isfinite(c) for c in row.cells)

    @pytest.mark.parametrize(
        "methods",
        [
            (Method.EXACT_QUADRATURE, Method.CLOSED_FORM),
            (Method.CLOSED_FORM, Method.HIGH_TEMP_ASYMPTOTIC),
        ],
    )
    def test_deterministic(self, methods):
        spec = small_spec(methods=methods)
        assert run_sweep(spec) == run_sweep(spec)

    def test_gamma_sweep_recomputes_capacitance(self):
        spec = small_spec()
        rows = run_sweep(spec)
        # closed forms do not depend on gamma, so the classical column is flat
        classical = [r.cells[0] for r in rows]
        assert classical == pytest.approx([classical[0]] * len(classical), rel=1e-14)

    def test_t1_sweep_with_ratio(self):
        spec = small_spec(
            sweep_variable="T1",
            grid=Grid(0.01, 0.1, 3, "log"),
            t2_over_t1=0.5,
        )
        rows = run_sweep(spec)
        for row in rows:
            assert row.T1 == row.swept_value
            assert row.T2 == pytest.approx(0.5 * row.T1, rel=1e-15)

    def test_regime_column_agrees_with_classifier(self):
        spec = small_spec(
            sweep_variable="T2", grid=Grid(0.001, 10.0, 5, "log"), T1=0.005
        )
        rows = run_sweep(spec)
        for row in rows:
            p = CircuitParams(spec.R, spec.L, spec.C, spec.M, spec.omega_c)
            s = derive_scales(p)
            b = BathPair.from_temperatures(row.T1, row.T2)
            expected = classify_regime(p, s, b)
            assert row.regime == expected.tag.value

    def test_exact_rows_run_no_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(quadrature, "_integrate_panels", no_quadrature)
        spec = small_spec(methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM))
        rows = run_sweep(spec)
        assert all(math.isfinite(c) for row in rows for c in row.cells)

    def test_arithmetic_error_becomes_nan_with_warning(self, monkeypatch):
        # the package's own ArithmeticError (not an OverflowError) is caught too
        def vanishing(*args, **kwargs):
            raise ArithmeticError("mode polynomials vanish")

        monkeypatch.setattr(sweep, "assemble_report", vanishing)
        rows = run_sweep(small_spec())
        assert all(math.isnan(c) for row in rows for c in row.cells)
        assert all(row.warnings == 1 for row in rows)

    def test_failing_method_becomes_nan_with_warning(self):
        # T1^4 overflows in the low-temperature law at absurd temperatures
        spec = small_spec(
            sweep_variable="T1",
            grid=Grid(1e99, 1e110, 3, "log"),
            T2=1e98,
            methods=(Method.LOW_TEMP_ASYMPTOTIC,),
        )
        rows = run_sweep(spec)
        assert all(math.isnan(c) for c in rows[-1].cells)
        assert rows[-1].warnings >= 1


class TestEmitCsv:
    def test_line_count_and_header(self, tmp_path):
        rows = run_sweep(small_spec(grid=Grid(1e2, 1e3, 2, "log")))
        dest = tmp_path / "out.csv"
        emit_csv(rows, dest)
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0] == (
            "gamma_over_omega_d,T1,T2,"
            "closed_q_classical,closed_q_quantum,closed_q_total,regime,warnings"
        )

    def test_round_trip_lossless(self, tmp_path):
        rows = run_sweep(
            small_spec(methods=(Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC))
        )
        dest = tmp_path / "out.csv"
        emit_csv(rows, dest)
        header, parsed = read_csv(dest)
        assert header == rows[0].header()
        for row, cells in zip(rows, parsed):
            assert cells[0] == row.swept_value  # bit-exact float round trip
            assert cells[1] == row.T1 and cells[2] == row.T2
            assert tuple(cells[3:-2]) == row.cells
            assert cells[-2] == row.regime
            assert cells[-1] == row.warnings

    def test_empty_rows_refused(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            emit_csv([], tmp_path / "never.csv")

    def test_lf_endings_and_utf8(self, tmp_path):
        rows = run_sweep(small_spec(grid=Grid(1e2, 1e3, 2, "log")))
        dest = tmp_path / "out.csv"
        emit_csv(rows, dest)
        raw = dest.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_spec(methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM))
        a = tmp_path / "a.csv"
        emit_csv(run_sweep(spec), a)
        b = tmp_path / "b.csv"
        emit_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()


class TestPresets:
    def test_fig2_specs(self):
        specs = preset_specs("fig2")
        assert len(specs) == 3
        assert {(s.T1, s.T2) for s in specs} == {(2.0, 1.0), (5.0, 1.0), (10.0, 5.0)}
        for s in specs:
            assert s.sweep_variable == "gamma_over_omega_d"
            assert s.grid == Grid(1.0, 1e5, 20, "log")
            assert s.methods == (Method.EXACT_QUADRATURE, Method.CLOSED_FORM)
            assert (s.M, s.L, s.omega_c) == (1.0, 2.0, 5.0)

    def test_fig3_ratio_locked(self):
        (spec,) = preset_specs("fig3")
        rows = run_sweep(spec)
        assert len(rows) == 25
        for row in rows:
            assert row.T2 == pytest.approx(row.T1 / 2.0, rel=1e-15)
        # low-temperature law converges onto the closed total as T1 shrinks
        idx = rows[0].header().index("closed_q_total")
        idx_low = rows[0].header().index("lowt_q_total")
        first = rows[0]
        ratio = first.cells[idx - 3] / first.cells[idx_low - 3]
        assert ratio == pytest.approx(1.0, rel=1e-3)

    def test_fig4_fixed_t1_values(self):
        specs = preset_specs("fig4")
        assert [s.T1 for s in specs] == [2.0, 5.0, 10.0]
        for s in specs:
            assert s.sweep_variable == "T2"
            assert s.methods == (Method.CLOSED_FORM, Method.HIGH_TEMP_ASYMPTOTIC)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            preset_specs("fig9")


class TestEmitPlotScript:
    def _script(self, tmp_path, rows, name="plot.py"):
        csv_path = tmp_path / "data.csv"
        emit_csv(rows, csv_path)
        dest = tmp_path / name
        emit_plot_script(rows, dest, csv_path)
        text = dest.read_text(encoding="utf-8")
        compile(text, str(dest), "exec")  # must at least be valid source
        return text

    def test_fig2_layout(self, tmp_path):
        spec = small_spec(methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM))
        text = self._script(tmp_path, run_sweep(spec))
        assert "semilogx" in text
        assert "exact_q_total" in text and "closed_q_total" in text
        assert '"data.csv"' in text or "'data.csv'" in text

    def test_fig3_layout(self, tmp_path):
        spec = small_spec(
            sweep_variable="T1",
            grid=Grid(0.001, 0.1, 3, "log"),
            t2_over_t1=0.5,
            methods=(Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC),
        )
        text = self._script(tmp_path, run_sweep(spec))
        assert "lowt_q_total" in text and "closed_q_total" in text

    def test_fig4_layout(self, tmp_path):
        spec = small_spec(
            sweep_variable="T2",
            grid=Grid(2.0, 200.0, 3, "log"),
            T1=2.0,
            methods=(Method.CLOSED_FORM, Method.HIGH_TEMP_ASYMPTOTIC),
        )
        text = self._script(tmp_path, run_sweep(spec))
        assert '"--"' in text  # dashed asymptote
        assert "hight_q_quantum" in text and "closed_q_quantum" in text

    def test_relative_csv_path(self, tmp_path):
        rows = run_sweep(small_spec(grid=Grid(1e2, 1e3, 2, "log")))
        nested = tmp_path / "scripts"
        nested.mkdir()
        csv_path = tmp_path / "data" / "sweep.csv"
        csv_path.parent.mkdir()
        emit_csv(rows, csv_path)
        dest = nested / "plot.py"
        emit_plot_script(rows, dest, csv_path)
        text = dest.read_text(encoding="utf-8")
        assert "../data/sweep.csv" in text

    def test_empty_rows_refused(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            emit_plot_script([], tmp_path / "plot.py", tmp_path / "d.csv")
