"""
Convergence onto the overdamped closed form
===========================================

The closed-form heat current is the gamma -> infinity limit of the exact
frequency integral.  Sweeping gamma/omega_d over five decades at fixed
omega_d shows the exact result walking onto the closed form: by
gamma/omega_d ~ 1e3 the two agree to better than 1% for moderate
temperatures, while for gamma/omega_d <~ 10 the circuit is simply not
overdamped and the closed form misses by order one.

The same sweep is available from the command line, and the plot demo draws it:

    heat sweep --preset fig2 --out fig2.csv && python3 demos/05_plot_sweep.py fig2.csv
"""

from overheat import Grid, Method, SweepSpec, run_sweep

TEMPERATURE_PAIRS = [(2.0, 1.0), (5.0, 1.0), (10.0, 5.0)]

for T1, T2 in TEMPERATURE_PAIRS:
    spec = SweepSpec(
        sweep_variable="gamma_over_omega_d",
        grid=Grid(1.0, 1e5, 20, "log"),
        T1=T1,
        T2=T2,
        methods=(Method.EXACT_QUADRATURE, Method.CLOSED_FORM),
    )
    rows = run_sweep(spec)

    # Column layout: the header names each method's classical/quantum/total
    # cells; pick out the two totals and tabulate their relative gap.
    header = rows[0].header()
    i_exact = header.index("exact_q_total") - 3
    i_closed = header.index("closed_q_total") - 3

    print(f"T1 = {T1:g}, T2 = {T2:g}")
    print(f"  {'gamma/omega_d':>14s} {'exact':>14s} {'closed':>14s} {'rel gap':>10s}")
    for row in rows[::3]:
        exact = row.cells[i_exact]
        closed = row.cells[i_closed]
        gap = abs(exact - closed) / abs(closed)
        print(f"  {row.swept_value:14.4g} {exact:14.8f} {closed:14.8f} {gap:10.2e}")
    print()
