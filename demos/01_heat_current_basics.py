"""
Heat current between two coupled RLC circuits: the basics
=========================================================

Two LC oscillators, each damped by its own resistive bath held at a fixed
temperature, exchange energy through a mutual inductance M.  This script
builds the circuit used throughout the documentation, inspects its derived
frequency scales, classifies the damping/temperature regime, and evaluates
the steady-state heat current three ways: exact frequency integral, the
overdamped closed form, and its classical/quantum split.
"""

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    assemble_report,
    classify_regime,
)

# The reference circuit: omega_d = R/L = 1 sets the unit of frequency, and
# the small capacitance puts gamma = 1/(RC) four decades above omega_d,
# deep in the overdamped regime (hbar = kb = 1 throughout).
circuit = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0)
scales = circuit.scales

print("derived frequency scales")
print(f"  gamma   = {scales.gamma:10.4g}   (charge relaxation, 1/RC)")
print(f"  omega_0 = {scales.omega_0:10.4g}   (bare LC resonance)")
print(f"  omega_d = {scales.omega_d:10.4g}   (flux relaxation, R/L)")
print(f"  omega_+ = {scales.omega_plus:10.4g}   (in-phase mode, R/(L+M))")
print(f"  omega_- = {scales.omega_minus:10.4g}   (out-of-phase mode, R/(L-M))")
print(f"  lambda_+ = {scales.lambda_plus:9.4g}   (slow pole, cutoff-renormalized)")
print(f"  lambda_- = {scales.lambda_minus:9.4g}")
print()

# Hold the first bath at T1 = 2 and the second at T2 = 1.  The classifier
# reports where this point sits relative to the overdamped validity
# conditions and the temperature rows, with the margin of each inequality.
baths = BathPair.from_temperatures(T1=2.0, T2=1.0)
label = classify_regime(circuit, baths)
print(f"regime: {label.tag.value}")
for cond in label.conditions:
    mark = "ok" if cond.satisfied else "FAILED"
    print(f"  {cond.name:34s} margin {cond.margin:9.3g}  {mark}")
print()

# Evaluate the current from the exact transfer function (its classical
# integral plus the residue sum of its quantum part), then by the
# overdamped closed form.  At gamma/omega_d = 1e4 the two agree to
# a few parts in 1e4; the residual is the genuine finite-gamma correction.
exact = assemble_report(circuit, baths, Method.EXACT_QUADRATURE)
closed = assemble_report(circuit, baths, Method.CLOSED_FORM)

print("heat current out of the hot bath (hbar = kb = 1)")
print(f"  exact            : {exact.q_total:+.10f}")
print(f"  closed form      : {closed.q_total:+.10f}")
print(f"  relative gap     : {abs(exact.q_total - closed.q_total) / closed.q_total:.2e}")
print()

# The closed form splits into a classical piece, proportional to T1 - T2,
# and a quantum correction that is negative here: quantum fluctuations
# suppress the transport below its classical value.
print("closed-form split")
print(f"  classical : {closed.q_classical:+.10f}")
print(f"  quantum   : {closed.q_quantum:+.10f}")
print(f"  total     : {closed.q_total:+.10f}")
