"""Metamorphic relations of the heat current: units, time scale and bath swap.

None of them needs an oracle; each relates two evaluations of the package.

* Units: Q(hbar, kb, T1, T2) = hbar Q(1, 1, kb T1/hbar, kb T2/hbar), and
  bitwise for `heat_exact` in SI units at the same thermal inputs beta hbar.
* Time scale: (L, C, M, omega_c, T1, T2) -> (aL, aC, aM, omega_c/a, T1/a, T2/a)
  gives Q -> Q/a^2.
* Bath swap: every column is odd under T1 <-> T2.

The properties run on the domain of
`TestQuantumIntegral::test_finite_odd_and_zero_at_equilibrium` and draw hbar,
kb and a as powers of two, so every scaled input is exact in binary and a
miss beyond a few ulps is a defect, not rounding.  Each "evaluation" is the
three columns of a method's report, or k_b dT classical_integral and
quantum_integral in one transfer mode; its error is measured relative to its
largest column.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    TransferMode,
    assemble_report,
    classical_integral,
    classify_regime,
    heat_exact,
    quantum_integral,
)

# Bound of every property: four units in the last place of the largest column.
FEW_ULPS = 4 * 2.0**-52

DOMAIN = dict(
    log_ratio=st.floats(-2.0, 6.0),
    m_over_l=st.floats(1e-3, 0.99),
    omega_c=st.floats(0.1, 100.0),
    log_temperatures=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
UNIT = st.integers(-30, 30).map(lambda k: 2.0**k)
TIME_UNIT = st.integers(-20, 20).map(lambda k: 2.0**k)

CLOSED_FORMS = (Method.CLOSED_FORM, Method.LOW_TEMP_ASYMPTOTIC, Method.HIGH_TEMP_ASYMPTOTIC)
EXACT_SPLIT = (Method.EXACT_QUADRATURE, *TransferMode)

SI = (1.054571817e-34, 1.380649e-23)
REFERENCE = dict(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0)


def domain_circuit(log_ratio, m_over_l, omega_c, a=1.0, hbar=1.0, kb=1.0):
    """R = L = 2 at gamma/omega_d = 10**log_ratio, with time measured in units of a."""
    return CircuitParams(
        R=2.0,
        L=2.0 * a,
        C=a / (2.0 * 10.0**log_ratio),
        M=2.0 * m_over_l * a,
        omega_c=omega_c / a,
        hbar=hbar,
        kb=kb,
    )


def evaluate(p, T1, T2, keys):
    """{key: columns} for Methods and TransferModes in `keys`, and the regime tag."""
    b = BathPair.from_temperatures(T1, T2, p.kb)
    out = {}
    for key in keys:
        if isinstance(key, Method):
            r = assemble_report(p, b, key)
            out[key] = (r.q_classical, r.q_quantum, r.q_total)
        else:
            out[key] = (
                p.kb * (T1 - T2) * classical_integral(p, key),
                quantum_integral(p, b, key),
            )
    return out, classify_regime(p, b).tag


def rel_error(got, want):
    """Largest miss of `got` against `want`, over the largest column of `want`."""
    scale = max(abs(w) for w in want)
    miss = max(abs(g - w) for g, w in zip(got, want))
    return miss / scale if scale else miss


def temperatures(log_temperatures):
    return tuple(10.0**v for v in log_temperatures)


@settings(max_examples=150, deadline=None)
@given(**DOMAIN, hbar=UNIT, kb=UNIT)
def test_units(log_ratio, m_over_l, omega_c, log_temperatures, hbar, kb):
    # measured worst case: 0 (bitwise equal) over 4500 random draws
    T1, T2 = temperatures(log_temperatures)
    keys = (*Method, *TransferMode)
    natural, tag = evaluate(
        domain_circuit(log_ratio, m_over_l, omega_c), kb * T1 / hbar, kb * T2 / hbar, keys
    )
    scaled, scaled_tag = evaluate(
        domain_circuit(log_ratio, m_over_l, omega_c, hbar=hbar, kb=kb), T1, T2, keys
    )
    assert scaled_tag is tag
    for key in keys:
        assert rel_error(scaled[key], [hbar * v for v in natural[key]]) <= FEW_ULPS, key


def check_time_scale(log_ratio, m_over_l, omega_c, log_temperatures, a, keys):
    T1, T2 = temperatures(log_temperatures)
    base, tag = evaluate(domain_circuit(log_ratio, m_over_l, omega_c), T1, T2, keys)
    scaled, scaled_tag = evaluate(
        domain_circuit(log_ratio, m_over_l, omega_c, a=a), T1 / a, T2 / a, keys
    )
    assert scaled_tag is tag
    for key in keys:
        assert rel_error([a * a * v for v in scaled[key]], base[key]) <= FEW_ULPS, key


@settings(max_examples=150, deadline=None)
@given(**DOMAIN, a=TIME_UNIT)
def test_time_scale_closed_forms(log_ratio, m_over_l, omega_c, log_temperatures, a):
    # measured worst case: 1.2 ulp (LowTempAsymptotic) over 4500 random draws
    check_time_scale(log_ratio, m_over_l, omega_c, log_temperatures, a, CLOSED_FORMS)


@settings(max_examples=150, deadline=None)
@given(**DOMAIN, a=TIME_UNIT)
@example(
    log_ratio=3.0, m_over_l=0.9, omega_c=100.0, log_temperatures=(-0.57, -0.573), a=2.0**14
)
def test_time_scale_exact_split(log_ratio, m_over_l, omega_c, log_temperatures, a):
    # measured worst case: 1.3 ulp over 1500 random draws; ln c2 - ln c1 in place
    # of the log of c2/c1 missed by 11546 ulp (OverdampedLinear) at the example
    check_time_scale(log_ratio, m_over_l, omega_c, log_temperatures, a, EXACT_SPLIT)


def check_swap(log_ratio, m_over_l, omega_c, log_temperatures, methods, columns):
    T1, T2 = temperatures(log_temperatures)
    p = domain_circuit(log_ratio, m_over_l, omega_c)
    forward, _ = evaluate(p, T1, T2, methods)
    backward, _ = evaluate(p, T2, T1, methods)
    for m in methods:
        scale = max(abs(v) for v in forward[m])
        for k in columns:
            assert abs(backward[m][k] + forward[m][k]) <= FEW_ULPS * scale, (m, k)


@settings(max_examples=150, deadline=None)
@given(**DOMAIN)
def test_bath_swap_is_exactly_odd(log_ratio, m_over_l, omega_c, log_temperatures):
    # the columns no other test swaps: every q_classical, and the LowTempAsymptotic
    # q_quantum; measured worst case: 0 (exactly odd) over 4500 random draws
    check_swap(log_ratio, m_over_l, omega_c, log_temperatures, tuple(Method), (0,))
    check_swap(
        log_ratio, m_over_l, omega_c, log_temperatures, (Method.LOW_TEMP_ASYMPTOTIC,), (1,)
    )


@settings(max_examples=150, deadline=None)
@given(**DOMAIN)
@example(log_ratio=1.0, m_over_l=0.9, omega_c=70.0, log_temperatures=(-2.0, -1.95))
def test_bath_swap_closed_form_quantum(log_ratio, m_over_l, omega_c, log_temperatures):
    # measured worst case: 0 (exactly odd) over 1500 random draws; ln(T2/T1) and
    # ln(T1/T2) rounded to different magnitudes missed by 1064 ulp at the example
    methods = (Method.CLOSED_FORM, Method.HIGH_TEMP_ASYMPTOTIC)
    check_swap(log_ratio, m_over_l, omega_c, log_temperatures, methods, (1,))


def reference_reports(hbar=1.0, kb=1.0, a=1.0, T=(2.0, 1.0)):
    """Four reports, heat_exact and the tag of the reference circuit in time unit a."""
    p = CircuitParams(
        R=REFERENCE["R"],
        L=REFERENCE["L"] * a,
        C=REFERENCE["C"] * a,
        M=REFERENCE["M"] * a,
        omega_c=REFERENCE["omega_c"] / a,
        hbar=hbar,
        kb=kb,
    )
    T1, T2 = T
    b = BathPair.from_temperatures(T1, T2, kb)
    cols, tag = evaluate(p, T1, T2, tuple(Method))
    return cols, heat_exact(p, b), tag


def natural_temperatures(hbar, kb, T):
    """Temperatures of a circuit in units (hbar, kb) at thermal frequencies T."""
    return tuple(t * hbar / kb for t in T)


@pytest.mark.parametrize("hbar, kb", [SI, (3.0, 0.25)])
def test_units_on_reference_circuit(hbar, kb):
    # thermal frequencies (2, 1); measured: methods 2.1e-16 (SI) and 3.1e-16,
    # heat_exact 2.2e-16 (SI) and 3.2e-16, both tags Mixed
    T = natural_temperatures(hbar, kb, (2.0, 1.0))
    scaled, scaled_exact, scaled_tag = reference_reports(hbar, kb, T=T)
    natural, exact, tag = reference_reports(T=tuple(kb * t / hbar for t in T))
    assert scaled_tag is tag
    for m in Method:
        assert rel_error(scaled[m], [hbar * v for v in natural[m]]) <= 1.6e-15, m
    assert abs(scaled_exact - hbar * exact) <= 2 * 2.0**-52 * abs(hbar * exact)


@pytest.mark.parametrize("hbar, kb", [SI, (3.0, 0.25)])
def test_units_of_heat_exact_when_hot(hbar, kb):
    # thermal frequencies (50, 10); measured: 0 at (3, 0.25), 2.7 ulp in SI units,
    # where the inverse temperatures round differently (2.4e-2 while an absolute
    # tolerance of 1e-30 stopped the quadrature unrefined)
    T = natural_temperatures(hbar, kb, (50.0, 10.0))
    _, scaled_exact, _ = reference_reports(hbar, kb, T=T)
    _, exact, _ = reference_reports(T=tuple(kb * t / hbar for t in T))
    assert abs(scaled_exact - hbar * exact) <= FEW_ULPS * abs(hbar * exact)


@settings(max_examples=150, deadline=None)
@given(**DOMAIN)
@example(log_ratio=1.0, m_over_l=0.5, omega_c=5.0, log_temperatures=(math.log10(50.0), 1.0))
def test_units_of_heat_exact_in_si(log_ratio, m_over_l, omega_c, log_temperatures):
    # the same bath read in natural units: its thermal inputs beta_j hbar, the
    # only way temperatures enter heat_exact, are kept bit for bit; measured
    # worst case: 0 (bitwise equal) over 2000 random draws
    hbar, kb = SI
    T = natural_temperatures(hbar, kb, temperatures(log_temperatures))
    b = BathPair.from_temperatures(*T, kb)
    natural = dataclasses.replace(b, beta1=b.beta1 * hbar, beta2=b.beta2 * hbar)
    exact = heat_exact(domain_circuit(log_ratio, m_over_l, omega_c), natural)
    scaled = heat_exact(domain_circuit(log_ratio, m_over_l, omega_c, hbar=hbar, kb=kb), b)
    assert abs(scaled - hbar * exact) <= FEW_ULPS * abs(hbar * exact)


@pytest.mark.parametrize("a", [1e-3, 7.0, 1e6])
def test_time_scale_on_reference_circuit(a):
    # measured: methods <= 3.0e-15, heat_exact <= 3.6e-16, same tag
    scaled, scaled_exact, scaled_tag = reference_reports(a=a, T=(2.0 / a, 1.0 / a))
    base, exact, tag = reference_reports()
    assert scaled_tag is tag
    for m in Method:
        assert rel_error([a * a * v for v in scaled[m]], base[m]) <= 1.1e-13, m
    assert a * a * scaled_exact == pytest.approx(exact, rel=1.1e-13)

