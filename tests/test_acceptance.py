"""End-to-end acceptance suite.

Eight numbered criteria covering the library's headline guarantees: the two
independent transfer-function routes agree, the closed forms match quadrature,
the figure-style sweeps reproduce the overdamped convergence, the low- and
high-temperature laws hold with the advertised remainders, the digamma kernel
is correct, physical symmetries are exact, and the sweep harness is
deterministic.  Each test prints one `ACCEPTANCE n PASS` line with the
measured margin (visible with `pytest -s`); the pytest verdict itself is the
pass/fail record.
"""

import cmath
import math
import time

import numpy as np
import pytest

from digamma_table import DIGAMMA_TABLE

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    TransferMode,
    assemble_report,
    derive_scales,
    digamma,
    emit_csv,
    heat_classical,
    heat_exact,
    heat_low_temp,
    heat_quantum,
    run_preset,
    transfer_f12,
)
from response_reference import trace_f12

EULER_GAMMA = 0.57721566490153286061

FIG2_TEMPERATURE_PAIRS = [(2.0, 1.0), (5.0, 1.0), (10.0, 5.0)]


def reference_circuit(gamma_over_omega_d: float = 1e4) -> CircuitParams:
    # R=2, L=2 gives omega_d = 1; capacitance sets gamma = 1/(R C)
    return CircuitParams(2.0, 2.0, 1.0 / (2.0 * gamma_over_omega_d), 1.0, 5.0)


def closed_total(p: CircuitParams, b: BathPair) -> float:
    s = derive_scales(p)
    return heat_classical(p, s, b) + heat_quantum(p, s, b)


def test_criterion_1_transfer_function_matches_trace_route():
    """Factored |u+ u-|^2 transfer function == matrix-trace construction."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(250):
        R = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        L = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        M = rng.uniform(0.05, 0.95) * L
        C = math.exp(rng.uniform(math.log(1e-6), math.log(1.0)))
        omega_c = math.exp(rng.uniform(math.log(1e-2), math.log(1e3)))
        p = CircuitParams(R, L, C, M, omega_c)
        s = derive_scales(p)
        scale = max(abs(s.lambda_minus), s.omega_0, p.omega_c)
        omega = scale * math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        a = transfer_f12(omega, p, TransferMode.EXACT_CUBIC)
        b = trace_f12(omega, p)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 1 PASS: transfer vs trace, worst rel diff {worst:.2e}")


def test_criterion_2_closed_forms_match_linear_quadrature():
    """classical + quantum closed forms == quadrature of the linearized model."""
    start = time.monotonic()
    temp_pairs = [(0.02, 0.01), (0.5, 0.1), (2.0, 1.0), (20.0, 5.0), (300.0, 100.0)]
    worst = 0.0
    for ml_ratio in np.linspace(0.1, 0.9, 5):
        for wc_ratio in np.logspace(0.0, 2.0, 5):
            # omega_d = 1, so wc_ratio is both omega_c and omega_c/omega_d
            p = CircuitParams(2.0, 2.0, 5e-5, ml_ratio * 2.0, wc_ratio)
            for T1, T2 in temp_pairs:
                b = BathPair.from_temperatures(T1, T2)
                closed = closed_total(p, b)
                exact = heat_exact(p, b, mode=TransferMode.OVERDAMPED_LINEAR)
                worst = max(worst, abs(exact - closed) / abs(closed))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2 PASS: 125-point grid, worst rel diff {worst:.2e} "
        f"in {elapsed:.1f}s"
    )


def test_criterion_3_overdamped_convergence_sweep():
    """Exact (cubic) and closed-form totals converge as gamma/omega_d grows."""
    xs = np.logspace(0.0, 5.0, 20)
    summary = []
    for T1, T2 in FIG2_TEMPERATURE_PAIRS:
        b = BathPair.from_temperatures(T1, T2)
        errs = []
        for x in xs:
            p = reference_circuit(x)
            closed = closed_total(p, b)
            exact = heat_exact(p, b, mode=TransferMode.EXACT_CUBIC)
            errs.append(abs(exact - closed) / abs(closed))
        errs = np.asarray(errs)
        # the closed form is the gamma -> inf limit at fixed thermal
        # frequency, so hotter baths need a larger gamma/omega_d before the
        # cubic corrections (~ (omega_th^2/gamma) per factor) drop below 1%
        converged_from = 1e3 if max(T1, T2) <= 5.0 else 1e4
        assert errs[xs >= converged_from].max() <= 1e-2
        assert errs[xs <= 10.0].min() > 2e-2  # visibly apart outside validity
        tail = errs[xs >= 100.0]
        assert all(later < earlier for earlier, later in zip(tail, tail[1:]))
        summary.append(f"({T1:g},{T2:g}) final {errs[-1]:.1e}")
    print("ACCEPTANCE 3 PASS: overdamped convergence; " + "; ".join(summary))


def test_criterion_4_low_temperature_quartic_law():
    """T^4 law within 5% once omega_th <= 1e-2 |lambda_+|; remainder ~ T^2."""
    p = reference_circuit()
    s = derive_scales(p)
    threshold = 1e-2 * abs(s.lambda_plus)  # omega_th == T1 with hbar = kb = 1
    ratios = []
    for T1 in (threshold, threshold / 2.0, threshold / 5.0):
        b = BathPair.from_temperatures(T1, T1 / 2.0)
        ratios.append(closed_total(p, b) / heat_low_temp(p, b))
    assert all(0.95 <= r <= 1.05 for r in ratios)

    T1s = np.logspace(-3.0, -2.0, 7)
    errs = []
    for T1 in T1s:
        b = BathPair.from_temperatures(T1, T1 / 2.0)
        total = closed_total(p, b)
        errs.append(abs(total - heat_low_temp(p, b)) / abs(total))
    slope = np.polyfit(np.log(T1s), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)
    print(
        f"ACCEPTANCE 4 PASS: ratio at threshold {ratios[0]:.4f}, "
        f"remainder slope {slope:.2f}"
    )


def test_criterion_5_quantum_log_term_survives_high_temperature():
    """Quantum piece tends to a nonzero log term; residual decays as 1/T."""
    p = reference_circuit()
    s = derive_scales(p)
    T1s = np.logspace(1.0, 3.0, 7)
    residuals = []
    for T1 in T1s:
        b = BathPair.from_temperatures(T1, 2.0 * T1)
        log_term = assemble_report(p, s, b, Method.HIGH_TEMP_ASYMPTOTIC).q_quantum
        residuals.append(abs(heat_quantum(p, s, b) - log_term))
    exponent = np.polyfit(np.log(T1s), np.log(residuals), 1)[0]
    assert exponent == pytest.approx(-1.0, abs=0.1)

    b = BathPair.from_temperatures(10.0, 20.0)
    surviving = assemble_report(p, s, b, Method.HIGH_TEMP_ASYMPTOTIC).q_quantum
    assert abs(surviving) > 1e-3
    print(
        f"ACCEPTANCE 5 PASS: residual exponent {exponent:.3f}, "
        f"surviving log term {surviving:.4f}"
    )


def test_criterion_6_digamma_kernel():
    """Special values, functional equations, and the frozen oracle table."""
    assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-13
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) <= 1e-13

    rng = np.random.default_rng(4096)
    worst_rec = worst_ref = 0.0
    for _ in range(1000):
        r = math.exp(rng.uniform(math.log(0.5), math.log(100.0)))
        z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        if z.real < 0.5 and abs(z.imag) < 1e-3:
            continue  # poles of psi(z) and psi(z+1) sit on this half-line
        residual = digamma(z + 1.0) - digamma(z) - 1.0 / z
        worst_rec = max(worst_rec, abs(residual) / max(1.0, abs(digamma(z))))
    for _ in range(1000):
        z = complex(rng.uniform(-15.0, 15.0), rng.uniform(0.2, 15.0))
        cot = cmath.cos(math.pi * z) / cmath.sin(math.pi * z)
        residual = digamma(1.0 - z) - digamma(z) - math.pi * cot
        scale = max(1.0, abs(digamma(z)), abs(math.pi * cot))
        worst_ref = max(worst_ref, abs(residual) / scale)
    assert worst_rec <= 1e-12
    assert worst_ref <= 1e-12

    assert len(DIGAMMA_TABLE) >= 20
    worst_tab = 0.0
    for (zr, zi), (er, ei) in DIGAMMA_TABLE:
        got = digamma(complex(zr, zi))
        expected = complex(er, ei)
        worst_tab = max(worst_tab, abs(got - expected) / max(1.0, abs(expected)))
    assert worst_tab <= 1e-12
    print(
        f"ACCEPTANCE 6 PASS: recurrence {worst_rec:.1e}, reflection "
        f"{worst_ref:.1e}, table {worst_tab:.1e}"
    )


def test_criterion_7_symmetries_and_signs():
    """Antisymmetry in T1<->T2, positivity for hot first bath, exact zeros."""
    p = reference_circuit()
    s = derive_scales(p)
    closed_methods = (
        Method.CLOSED_FORM,
        Method.LOW_TEMP_ASYMPTOTIC,
        Method.HIGH_TEMP_ASYMPTOTIC,
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        T1 = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        T2 = T1 * math.exp(rng.uniform(math.log(1.2), math.log(10.0)))
        fwd = BathPair.from_temperatures(T1, T2)
        rev = BathPair.from_temperatures(T2, T1)
        for method in closed_methods:
            a = assemble_report(p, s, fwd, method).q_total
            b = assemble_report(p, s, rev, method).q_total
            assert a == pytest.approx(-b, rel=1e-12)
        ex_f = heat_exact(p, fwd)
        ex_r = heat_exact(p, rev)
        assert ex_f == pytest.approx(-ex_r, rel=1e-8)
        assert ex_r > 0.0 and closed_total(p, rev) > 0.0  # hot first bath

    equilibrium = BathPair.from_temperatures(3.0, 3.0)
    uncoupled = CircuitParams(p.R, p.L, p.C, 0.0, p.omega_c)
    hot_cold = BathPair.from_temperatures(3.0, 1.0)
    for method in (*closed_methods, Method.EXACT_QUADRATURE):
        assert assemble_report(p, s, equilibrium, method).q_total == 0.0
        report = assemble_report(
            uncoupled, derive_scales(uncoupled), hot_cold, method
        )
        assert report.q_total == 0.0
    print("ACCEPTANCE 7 PASS: antisymmetry, positivity, and exact zeros hold")


def test_criterion_8_sweep_determinism(tmp_path):
    """Byte-identical CSV across three runs of each preset."""
    for preset in ("fig2", "fig3", "fig4"):
        first = tmp_path / f"{preset}_1.csv"
        emit_csv(run_preset(preset), first)
        for rerun in (2, 3):
            again = tmp_path / f"{preset}_{rerun}.csv"
            emit_csv(run_preset(preset), again)
            assert first.read_bytes() == again.read_bytes()
    print("ACCEPTANCE 8 PASS: fig2/fig3/fig4 byte-identical across runs")
