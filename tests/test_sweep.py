import hashlib
import importlib.util
import math
import re
import sys
import types
from dataclasses import replace
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
    TransferMode,
    assemble_report,
    classify_regime,
    emit_csv,
    heat_exact,
    parse_config,
    preset_specs,
    run_preset,
    run_sweep,
)
from overheat import closedform, model, quadrature, sweep
from overheat.cli import main

from call_counting import counting


def read_csv(source) -> tuple[tuple[str, ...], list[list]]:
    """Read back an emitted CSV; numeric cells become floats/ints again."""
    with open(source, "r", encoding="utf-8", newline="") as fh:
        content = fh.read()
    lines = [line for line in content.split("\n") if line]
    header = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = []
        for text in line.split(","):
            try:
                cells.append(int(text))
            except ValueError:
                try:
                    cells.append(float(text))
                except ValueError:
                    cells.append(text)
        rows.append(cells)
    return header, rows


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
            (dict(start=1.0, stop=math.inf, points=5), "endpoints must be finite"),
            (dict(start=math.nan, stop=2.0, points=5), "endpoints must be finite"),
            # numpy refused these later, in `values`
            (dict(start=1.0, stop=10.0, points=2.5), "integer points >= 2 required, got 2.5"),
            (dict(start=1.0, stop=10.0, points=3.0), "integer points >= 2 required, got 3.0"),
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

    @pytest.mark.parametrize(
        "text, message",
        [
            # C = 1/(R x omega_d) is 0 at x = 1e308
            (
                "sweep = gamma_over_omega_d\nstop = 1e308\n",
                "gamma_over_omega_d = 1e+308: C must be positive and finite, got 0.0",
            ),
            # T2 = 1e-30 * T1 underflows to 0 at T1 = 1e-300
            (
                "sweep = T1\nstart = 1e-300\nt2_over_t1 = 1e-30\n",
                "T1 = 1e-300: T2 must be positive and finite, got 0.0",
            ),
            # beta2 = 1/T2 overflows at T2 = 1e-310
            (
                "sweep = T2\nstart = 1e-310\nstop = 1\n",
                "T2 = 1e-310: 1/(kb*T2) must be positive and finite at T2 = 1e-310",
            ),
        ],
        ids=["C_underflow", "T2_underflow", "beta2_overflow"],
    )
    def test_every_grid_point_is_checked(self, text, message, tmp_path, capsys):
        # both grids pass the raw-field checks; a derived point does not, so
        # the config is refused before anything runs
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(sweep_variable="C"), "sweep must be one of"),
            (dict(methods=()), "at least one method required"),
            # a method name, not a Method: run_sweep raised a TypeError
            (dict(methods=("ClosedForm",)), "unknown method 'ClosedForm'; valid: ExactQuadrature"),
            (dict(methods=[Method.CLOSED_FORM, None]), "unknown method None"),
            (dict(sweep_variable="T1", t2_over_t1=0.0), "t2_over_t1 must be positive"),
            (dict(sweep_variable="T1", t2_over_t1=-0.5), "t2_over_t1 must be positive"),
            (dict(sweep_variable="T1", t2_over_t1=math.inf), "t2_over_t1 must be positive"),
            (dict(sweep_variable="T1", t2_over_t1=math.nan), "t2_over_t1 must be positive"),
        ],
    )
    def test_spec_invariants(self, kwargs, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            SweepSpec(**kwargs)

    def test_methods_are_stored_as_a_tuple(self):
        # a list made the spec unhashable
        spec = SweepSpec(grid=Grid(1.0, 10.0, 2), methods=[Method.CLOSED_FORM])
        assert spec.methods == (Method.CLOSED_FORM,)
        assert hash(spec) == hash(replace(spec, methods=(Method.CLOSED_FORM,)))
        assert run_sweep(spec)[0].header()[3] == "closed_q_classical"

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

    def test_transfer_mode_is_not_settable(self, circuit, baths):
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
                circuit, baths, Method.EXACT_QUADRATURE, mode="OverdampedLinear"
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

    @pytest.mark.parametrize(
        "variable, ignored",
        [
            ("gamma_over_omega_d", {"C": -1.0}),
            ("T1", {"T1": -1.0}),
            ("T1", {"t2_over_t1": 0.5, "T2": math.nan}),
            ("T2", {"T2": 0.0}),
        ],
    )
    def test_swept_field_is_ignored(self, variable, ignored):
        # the sweep overrides the field at every point, so a bad fixed value
        # of it is never used and never refused
        grid = Grid(1.0, 2.0, 2)
        spec = SweepSpec(variable, grid, methods=(Method.CLOSED_FORM,), **ignored)
        assert [row.swept_value for row in run_sweep(spec)] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "variable, field",
        [("gamma_over_omega_d", "R"), ("gamma_over_omega_d", "T2"), ("T1", "C"), ("T1", "T2"),
         ("T2", "T1")],
    )
    def test_bad_fixed_field_is_refused(self, variable, field):
        with pytest.raises(ConfigError, match=f"{variable} = 1.0: {field} must be positive"):
            SweepSpec(sweep_variable=variable, grid=Grid(1.0, 2.0, 2), **{field: -1.0})


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
            b = BathPair.from_temperatures(row.T1, row.T2)
            expected = classify_regime(p, b)
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
        def vanishing(points, modes):
            return [[ArithmeticError("mode polynomials vanish") for _ in modes] for _ in points]

        monkeypatch.setattr(closedform, "_quantum_integrals", vanishing)
        rows = run_sweep(small_spec())
        assert all(math.isnan(c) for row in rows for c in row.cells)
        assert all(row.warnings == 1 for row in rows)

    @pytest.mark.parametrize("kwargs", [
        # T1 from 2e-307 with T2 = T1/2: the first row read nan with no warning
        dict(sweep_variable="T1", grid=Grid(2e-307, 1e-300, 4), t2_over_t1=0.5),
        # T2 from 1.5e-293 at T1 = 1.7e179: "-inf + inf in fsum" ended the sweep
        dict(sweep_variable="T2", grid=Grid(1.5371969585464802e-293, 1e-280, 4),
             R=451804992.7163319, L=6.486092109759495e-20, C=7.663051292264504e-15,
             M=1.0415043641851242e-21, omega_c=4.292529416337063e-11, T1=1.6866463617714756e179),
    ])
    def test_overflowing_residue_sum_is_one_nan_row(self, kwargs):
        # c_j s passes the largest float at the first point only: its exact
        # cells are nan with a warning, and every other row is finite
        rows = run_sweep(SweepSpec(**kwargs))
        assert all(math.isnan(c) for c in rows[0].cells[:3]) and rows[0].warnings >= 1
        assert all(math.isfinite(c) for row in rows[1:] for c in row.cells)

    def test_cluster_failure_is_one_nan_row(self, monkeypatch):
        # a pole cluster that reaches the imaginary axis fails the cubic
        # record of one circuit: its row's exact cells become nan with one
        # warning, and no other cell of the sweep moves
        spec = small_spec(methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM))
        xs = spec.grid.values()
        target, baths = sweep._grid_point(spec, xs[1])
        exact = assemble_report(target, baths, Method.EXACT_QUADRATURE)
        residue_nodes, clusters = quadrature._residue_nodes, quadrature._clusters

        def failing_at_target(p, *args):
            with monkeypatch.context() as m:
                if p == target:  # one group of the cubic model's six roots
                    m.setattr(quadrature, "_clusters", lambda roots: (
                        [list(range(6))] if len(roots) == 6 else clusters(roots)))
                return residue_nodes(p, *args)

        before = run_sweep(spec)
        quadrature._circuit_solve.cache_clear()
        monkeypatch.setattr(quadrature, "_residue_nodes", failing_at_target)
        try:
            rows = run_sweep(spec)
        finally:
            quadrature._circuit_solve.cache_clear()
        assert all(math.isnan(c) for c in rows[1].cells[:3])
        assert rows[1].cells[3:] == before[1].cells[3:]
        # the failure is the exact method's one warning, in place of its regime warnings
        assert rows[1].warnings == before[1].warnings - len(exact.validity_warnings) + 1
        assert rows[:1] + rows[2:] == before[:1] + before[2:]

    def test_existing_spec_builds_no_point_again(self, monkeypatch):
        # the spec keeps the circuits and baths it built to check its grid
        spec = small_spec(methods=tuple(Method))
        run_sweep(spec)  # every record is cached
        built = [
            counting(monkeypatch, model, "DerivedScales"),
            counting(monkeypatch, sweep, "CircuitParams"),
            counting(monkeypatch, sweep.BathPair, "from_temperatures"),
        ]
        run_sweep(spec)
        assert built == [[], [], []]

    def test_fig2_curve_makes_one_kernel_call(self, monkeypatch):
        # the residue sums of both methods at every row share one digamma call
        calls = counting(monkeypatch, quadrature, "_digamma_array")
        for spec in preset_specs("fig2"):
            calls.clear()
            run_sweep(spec)
            assert len(calls) == 1

    @pytest.mark.parametrize("variable, grid, fixed", [
        ("T1", Grid(1e-3, 1e3, 13, "log"), dict(T2=0.02)),
        ("T2", Grid(1e-3, 1e3, 13, "log"), dict(T1=0.02)),
        ("gamma_over_omega_d", Grid(1.0, 1e5, 11, "log"), dict(T1=0.5, T2=0.01)),
    ])
    def test_every_method_matches_its_report(self, variable, grid, fixed):
        # every regime and both kinds of warning, all four methods in one sweep:
        # cells, tag and warning count are the report's at each point
        spec = small_spec(sweep_variable=variable, grid=grid, methods=tuple(Method), **fixed)
        rows = run_sweep(spec)
        regimes = {row.regime for row in rows}
        assert "OutsideOverdamped" in regimes and "LowT" in regimes
        for x, row in zip(spec.grid.values(), rows):
            p, b = sweep._grid_point(spec, x)
            reports = [assemble_report(p, b, method) for method in spec.methods]
            cells = [c for r in reports for c in (r.q_classical, r.q_quantum, r.q_total)]
            assert [c.hex() for c in row.cells] == [c.hex() for c in cells], x
            assert row.regime == classify_regime(p, b).tag.value
            assert row.warnings == sum(len(r.validity_warnings) for r in reports)

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

    def test_failed_cells_and_special_values(self, tmp_path):
        # nan cells of a failed method, signed zero, inf and exponents, as
        # repr writes them
        methods = (Method.EXACT_QUADRATURE, Method.CLOSED_FORM)
        rows = [
            sweep.SweepRow("T1", 0.1, 0.1, 0.05, methods,
                           (math.nan, math.nan, math.nan, 1.5, -0.25, 1.25), "LowT", 1),
            sweep.SweepRow("T1", 1e-300, 1e-300, 5e-301, methods,
                           (0.1, -0.0, 0.1, 2.0000000000000004, math.inf, -1e16),
                           "OutsideOverdamped", 3),
        ]
        dest = tmp_path / "out.csv"
        emit_csv(rows, dest)
        assert dest.read_bytes() == (
            b"T1,T1,T2,exact_q_classical,exact_q_quantum,exact_q_total,"
            b"closed_q_classical,closed_q_quantum,closed_q_total,regime,warnings\n"
            b"0.1,0.1,0.05,nan,nan,nan,1.5,-0.25,1.25,LowT,1\n"
            b"1e-300,1e-300,5e-301,0.1,-0.0,0.1,2.0000000000000004,inf,-1e+16,"
            b"OutsideOverdamped,3\n"
        )

    @pytest.mark.parametrize("other", [
        dict(sweep_variable="T2"),
        dict(methods=(Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC)),
        dict(methods=(Method.LOW_TEMP_ASYMPTOTIC,)),
    ])
    def test_mixed_layouts_refused(self, other, tmp_path):
        spec = small_spec(sweep_variable="T1", grid=Grid(0.01, 0.1, 2, "log"))
        rows = run_sweep(spec) + run_sweep(small_spec(**{
            "sweep_variable": "T1", "grid": Grid(0.01, 0.1, 2, "log"), **other}))
        with pytest.raises(ValueError, match="column layout"):
            emit_csv(rows, tmp_path / "never.csv")
        assert not (tmp_path / "never.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_spec(methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM))
        a = tmp_path / "a.csv"
        emit_csv(run_sweep(spec), a)
        b = tmp_path / "b.csv"
        emit_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()


# sha256 of each preset CSV.  Every cell is written in its shortest round-trip
# form, so a digest moves with any change of any value in the last bit; a
# change that moves one is an accuracy change and has to be declared.
PRESET_SHA256 = {
    "fig2": "3c8e20c7d44e375234a2358afe399afb06e8340b4b0f1a7829276243da4f0f65",
    "fig3": "2f85958aea39c5f25685737e86306bf9e14f2255a40152f485aa677dd8de475a",
    "fig4": "31cdb2eebbc500efb173ecf3af63d076a2101122d16ee45d47721bacdcd5b1aa",
}


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_csv_digest(self, name, tmp_path):
        dest = tmp_path / f"{name}.csv"
        emit_csv(run_preset(name), dest)
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == PRESET_SHA256[name]

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_rows_equal_per_point_reports_bit_for_bit(self, name):
        # a sweep evaluates each method over all rows at once; every cell,
        # regime and warning count is the one assemble_report gives alone
        for spec in preset_specs(name):
            for x, row in zip(spec.grid.values(), run_sweep(spec)):
                p, b = sweep._grid_point(spec, x)
                cells, warnings = [], 0
                for method in spec.methods:
                    report = assemble_report(p, b, method)
                    cells += [report.q_classical, report.q_quantum, report.q_total]
                    warnings += len(report.validity_warnings)
                assert [c.hex() for c in row.cells] == [c.hex() for c in cells], x
                assert row.regime == report.regime.tag.value
                assert row.warnings == warnings

    def test_fig3_closed_total_against_quadrature(self):
        # the linear model's total at its cancelling low-temperature end,
        # relative to the total itself: 6.43e-5 with a running complex sum of
        # the residue terms, 2.2e-6 with math.fsum
        (spec,) = preset_specs("fig3")
        worst = 0.0
        for x, row in zip(spec.grid.values(), run_sweep(spec)):
            p, b = sweep._grid_point(spec, x)
            expected = heat_exact(p, b, TransferMode.OVERDAMPED_LINEAR)
            closed_total = row.cells[row.header().index("closed_q_total") - 3]
            worst = max(worst, abs(closed_total - expected) / abs(expected))
        assert worst <= 6.43e-5

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


def stub_matplotlib(monkeypatch):
    """Install a matplotlib whose plot calls record (x, y, style), whose xlabel
    calls record the label and whose savefig records the path; return the records."""
    series, xlabels, saved = [], [], []

    def plot(x, y, style="-", **kwargs):
        series.append((np.asarray(x), np.asarray(y), style))

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.plot = pyplot.semilogx = pyplot.loglog = plot
    pyplot.xlabel = lambda label, *args, **kwargs: xlabels.append(label)
    pyplot.savefig = lambda path, *args, **kwargs: saved.append(path)
    for name in ("ylabel", "legend", "close"):
        setattr(pyplot, name, lambda *args, **kwargs: None)
    package = types.ModuleType("matplotlib")
    package.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", package)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return series, xlabels, saved


@pytest.fixture(scope="module")
def plot_sweep():
    """The `plot` function of `demos/05_plot_sweep.py`."""
    path = Path(__file__).resolve().parent.parent / "demos" / "05_plot_sweep.py"
    spec = importlib.util.spec_from_file_location("plot_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.plot


# Sweeps that the plot demo draws, each with its (solid, dashed) curve counts:
# the presets through `heat sweep`, one generic config, three configs that
# share a preset's sweep variable but not its method set, a fig3 sweep at
# fixed T2, and one small spec per preset layout.
PLOTTED_SWEEPS = {
    "fig2": (["--preset", "fig2"], (3, 3)),
    "fig3": (["--preset", "fig3"], (1, 1)),
    "fig4": (["--preset", "fig4"], (3, 3)),
    "generic": ("sweep = T2\nstart = 2\nstop = 200\npoints = 3\nmethods = ClosedForm\n", (1, 0)),
    "exact_only": (
        "sweep = gamma_over_omega_d\nstart = 1e2\nstop = 1e4\npoints = 3\n"
        "methods = ExactQuadrature\n",
        (1, 0),
    ),
    "lowt_only": (
        "sweep = T1\nstart = 1e-3\nstop = 1e-1\npoints = 3\nt2_over_t1 = 0.5\n"
        "methods = LowTempAsymptotic\n",
        (1, 0),
    ),
    "hight_only": (
        "sweep = T2\nstart = 2\nstop = 200\npoints = 3\nmethods = HighTempAsymptotic\n",
        (1, 0),
    ),
    "fig3_fixed_t2": (
        "sweep = T1\nstart = 1e-2\nstop = 1\npoints = 3\nT2 = 0.005\n"
        "methods = ClosedForm, LowTempAsymptotic\n",
        (1, 1),
    ),
    "fig2_layout": (small_spec(methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM)), (1, 1)),
    "fig3_layout": (
        small_spec(
            sweep_variable="T1",
            grid=Grid(0.001, 0.1, 3, "log"),
            t2_over_t1=0.5,
            methods=(Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC),
        ),
        (1, 1),
    ),
    "fig4_layout": (
        small_spec(
            sweep_variable="T2",
            grid=Grid(2.0, 200.0, 3, "log"),
            T1=2.0,
            methods=(Method.CLOSED_FORM, Method.HIGH_TEMP_ASYMPTOTIC),
        ),
        (1, 1),
    ),
}
# The columns that each preset's layout draws, by the first four letters of a
# PLOTTED_SWEEPS name; every other sweep draws its totals.
DRAWN_COLUMNS = {
    "fig2": {"exact_q_total", "closed_q_total"},
    "fig3": {"closed_q_total", "lowt_q_total"},
    "fig4": {"closed_q_quantum", "hight_q_quantum"},
}
# The x-axis label of each sweep that the fig3 layout plots: the ratio only
# when every row has the same T2/T1.
FIG3_XLABELS = {
    "fig3": "$T_1$ (with $T_2/T_1 = 0.5$)",
    "fig3_fixed_t2": "$T_1$",
    "fig3_layout": "$T_1$ (with $T_2/T_1 = 0.5$)",
}


class TestPlotDemo:
    @pytest.mark.parametrize("name", PLOTTED_SWEEPS)
    def test_plots_every_series(self, name, plot_sweep, tmp_path, monkeypatch):
        source, (solid, dashed) = PLOTTED_SWEEPS[name]
        csv_path = tmp_path / "data.csv"
        if isinstance(source, SweepSpec):
            emit_csv(run_sweep(source), csv_path)
        else:
            if isinstance(source, str):
                cfg = tmp_path / "sweep.cfg"
                cfg.write_text(source, encoding="utf-8")
                source = ["--config", str(cfg)]
            assert main(["sweep", *source, "--out", str(csv_path)]) == 0
        series, xlabels, saved = stub_matplotlib(monkeypatch)
        assert plot_sweep(str(csv_path)) == str(tmp_path / "data.png")
        assert saved == [str(tmp_path / "data.png")]
        assert [style for _, _, style in series].count("--") == dashed
        assert len(series) == solid + dashed
        for x, y, _ in series:
            assert x.size > 0 and x.shape == y.shape
        header, rows = read_csv(csv_path)
        cells = {column: [row[i] for row in rows] for i, column in enumerate(header)}
        totals = {column for column in header if column.endswith("_q_total")}
        drawn = {c for _, y, _ in series for c in header[3:-2] if np.isin(y, cells[c]).all()}
        assert drawn == DRAWN_COLUMNS.get(name[:4], totals)
        assert len(xlabels) == 1
        if name in FIG3_XLABELS:
            assert xlabels == [FIG3_XLABELS[name]]

    def test_png_lands_next_to_the_csv(self, plot_sweep, tmp_path, monkeypatch):
        # a CSV named relative to another working directory
        csv_path = tmp_path / "data" / "sweep.csv"
        csv_path.parent.mkdir()
        emit_csv(run_sweep(small_spec(grid=Grid(1e2, 1e3, 2, "log"))), csv_path)
        (tmp_path / "scripts").mkdir()
        monkeypatch.chdir(tmp_path / "scripts")
        _, _, saved = stub_matplotlib(monkeypatch)
        plot_sweep(str(Path("..") / "data" / "sweep.csv"))
        assert [Path(path).resolve() for path in saved] == [csv_path.with_suffix(".png").resolve()]
