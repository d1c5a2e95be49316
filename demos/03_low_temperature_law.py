"""
The low-temperature T^4 law
===========================

When both thermal frequencies sit far below the slow relaxation rates
|lambda_+-|, the heat current collapses onto a Stefan-Boltzmann-like law

    (2/15) (pi/hbar)^3 (M/L)^2 (kb^4/omega_d^2) (T1^4 - T2^4),

independent of the bath cutoff omega_c.  Cooling both baths at a fixed
ratio T2 = T1/2 shows the closed-form total walking onto the quartic law,
with the remainder shrinking as T^2 relative to the law itself.
"""

import numpy as np

from overheat import (
    BathPair,
    CircuitParams,
    heat_classical,
    heat_low_temp,
    heat_quantum,
)

circuit = CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0)
scales = circuit.scales

# |lambda_+| ~ 0.59 is the smallest relaxation rate, so the law is expected
# to hold once T1 (the thermal frequency, with hbar = kb = 1) drops two
# decades below it.
print(f"|lambda_+| = {abs(scales.lambda_plus):.4f}")
print()
print(f"{'T1':>10s} {'closed total':>14s} {'T^4 law':>14s} {'ratio':>9s}")
for T1 in np.logspace(0, -3, 7):
    baths = BathPair.from_temperatures(T1, T1 / 2.0)
    total = heat_classical(circuit, baths) + heat_quantum(circuit, baths)
    law = heat_low_temp(circuit, baths)
    print(f"{T1:10.4g} {total:14.6e} {law:14.6e} {total / law:9.5f}")

# The same cooldown is available as `heat sweep --preset fig3 --out fig3.csv`,
# which tabulates the ClosedForm and LowTempAsymptotic columns side by side.
