"""
The quantum correction that survives high temperature
=====================================================

Naively, quantum corrections should die out as both baths get hot.  In the
overdamped model they do not: heating the second bath at fixed T1 drives the
quantum piece of the heat current onto a logarithmic term

    (hbar/pi) (M/L)^2 (lambda_+ lambda_- / omega_d)^2 log(T2/T1),

which grows without bound instead of vanishing (1.024 at T2/T1 = 1e8 for
T1 = 2).  The first correction on top of it decays only as 1/T, so the
classical result is never recovered exactly.

The unbounded growth belongs to the overdamped model, whose transfer function
decays only like omega^-2.  In the full cubic model f12 decays like
omega^-10, and its quantum part (the `ExactCubic` column, from
`quantum_integral`) saturates once the hot bath's thermal frequency passes
the charge resonances near sqrt(gamma (omega_c + omega_pm)), about 240 for
this circuit: at 239.74 for T2/T1 = 1e4 and 240.25 for 1e8 when T1 = 2.  The
limit is the cold bath's excess over equipartition,
(hbar omega/2) coth(hbar omega/2 k_b T1) - k_b T1, weighted by f12; at the
charge resonances that excess is the zero-point energy, which is why the
cubic column is so much larger than the overdamped one.

This script tabulates both for the three hot-bath sweeps of the `fig4`
preset.
"""

from overheat import (
    BathPair,
    CircuitParams,
    Method,
    TransferMode,
    assemble_report,
    derive_scales,
    heat_quantum,
    quantum_integral,
)

circuit = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0)
scales = derive_scales(circuit)

for T1 in (2.0, 5.0, 10.0):
    print(f"T1 = {T1:g}, heating the second bath")
    print(
        f"  {'T2/T1':>8s} {'quantum':>12s} {'log term':>12s} {'residual':>10s}"
        f" {'ExactCubic':>12s}"
    )
    for ratio in (1.0 + 1e-9, 10.0, 100.0, 1e4, 1e6, 1e8):
        baths = BathPair.from_temperatures(T1, ratio * T1)
        quantum = heat_quantum(circuit, scales, baths)
        # the HighTempAsymptotic report carries the bare log term in its
        # quantum column
        log_term = assemble_report(
            circuit, scales, baths, Method.HIGH_TEMP_ASYMPTOTIC
        ).q_quantum
        cubic = quantum_integral(circuit, baths, TransferMode.EXACT_CUBIC)
        print(
            f"  {ratio:8.3g} {quantum:12.6f} {log_term:12.6f} "
            f"{abs(quantum - log_term):10.2e} {cubic:12.6f}"
        )
    print()

# `heat sweep --preset fig4 --out fig4.csv --plot fig4_plot.py` produces the
# same sweeps as CSV plus a plot script with the logarithmic asymptote dashed.
