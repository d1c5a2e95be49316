"""
Plotting a sweep CSV
====================

`heat sweep` writes numbers only; this script draws its CSV into a PNG beside it:

    heat sweep --preset fig2 --out fig2.csv
    python3 demos/05_plot_sweep.py fig2.csv      # writes fig2.png

A preset's swept variable (the first column) and method prefixes draw its
figure, any other sweep each method's total.  With no argument the script
draws fig3 in a temporary directory; without matplotlib it says so and exits.
"""

import os
import sys
import tempfile

import numpy as np

from overheat import emit_csv, run_preset


def grouped(plt, data, keys, x, solid, dashed):
    """Per distinct value of the key columns, a solid and a dashed (column, label) against x."""
    for i, group in enumerate(sorted(set(zip(*(data[k].tolist() for k in keys))))):
        sel = np.logical_and.reduce([data[k] == v for k, v in zip(keys, group)])
        tag = ", ".join(f"{k}={v:g}" for k, v in zip(keys, group))
        for (col, label), style in ((solid, "-"), (dashed, "--")):
            plt.semilogx(x[sel], data[col][sel], style, color=f"C{i}", label=f"{label}, {tag}")


# each figure draws its curves and returns its x and y labels
def fig2(plt, data):
    grouped(plt, data, ("T1", "T2"), data["gamma_over_omega_d"],
            ("exact_q_total", "exact"), ("closed_q_total", "closed form"))
    return r"$\gamma/\omega_d$", "heat current"


def fig3(plt, data):
    x = data["T1"]
    plt.loglog(x, data["closed_q_total"], "-", label="closed form total")
    plt.loglog(x, data["lowt_q_total"], "--", label="low-temperature $T^4$ law")
    ratios = {f"{r:.6g}" for r in (data["T2"] / x).tolist()}
    ratio = f" (with $T_2/T_1 = {ratios.pop()}$)" if len(ratios) == 1 else ""
    return f"$T_1${ratio}", "heat current"


def fig4(plt, data):
    grouped(plt, data, ("T1",), data["T2"] / data["T1"],
            ("closed_q_quantum", "quantum piece"), ("hight_q_quantum", "log asymptote"))
    return "$T_2/T_1$", "quantum heat current"


def generic(plt, data):
    swept = data.dtype.names[0]
    for name in (n for n in data.dtype.names if n.endswith("_q_total")):
        plt.plot(data[swept], data[name], label=name)
    return swept, "heat current"


LAYOUTS = {
    ("gamma_over_omega_d", frozenset({"exact", "closed"})): fig2,
    ("T1", frozenset({"closed", "lowt"})): fig3,
    ("T2", frozenset({"closed", "hight"})): fig4,
}


def plot(csv_path):
    """Draw the sweep in csv_path, save it next to it and return the PNG's path."""
    data = np.genfromtxt(csv_path, delimiter=",", names=True, dtype=None, encoding="utf-8")
    data, names = np.atleast_1d(data), data.dtype.names
    prefixes = frozenset(n[: -len("_q_total")] for n in names if n.endswith("_q_total"))
    import matplotlib.pyplot as plt
    xlabel, ylabel = LAYOUTS.get((names[0], prefixes), generic)(plt, data)
    plt.xlabel(xlabel)
    plt.ylabel(ylabel)
    plt.legend()
    png = os.path.splitext(csv_path)[0] + ".png"
    plt.savefig(png, dpi=160, bbox_inches="tight")
    plt.close()  # the next call starts a new figure
    return png


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(tmp, "fig3.csv")
        if len(sys.argv) == 1:
            emit_csv(run_preset("fig3"), csv_path)
        try:
            print(f"wrote {plot(csv_path)}")
        except ModuleNotFoundError:  # matplotlib is the one import in plot
            print("matplotlib is not installed: nothing drawn")
