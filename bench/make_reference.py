"""Regenerate ``bench/reference.json`` from the code in ``src/``.

The stored values are the correctness reference for the ``fig2`` and
``closed_scan`` curves and for the fixed ``tscan_split`` points, so they must
come from the commit the benchmark was defined on, not from the code under
test.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from run import git_commit
from workloads import REFERENCE, ROOT, load_overheat, scan_reference_points

PRESETS = ("fig2", "fig3", "fig4")


def main() -> None:
    os.environ.pop("HEAT_THREADS", None)
    oh = load_overheat()
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    curves, preset_sha256 = {}, {}
    for preset in PRESETS:
        for index, spec in enumerate(oh.preset_specs(preset)):
            rows = oh.run_sweep(spec)
            curves[f"{preset}/{index}"] = {
                "header": list(rows[0].header()),
                "rows": [
                    [r.swept_value, r.T1, r.T2, *r.cells, r.regime, r.warnings] for r in rows
                ],
            }
        path = out_dir / f"reference-{preset}.csv"
        oh.emit_csv(oh.run_preset(preset), path)
        preset_sha256[preset] = hashlib.sha256(path.read_bytes()).hexdigest()
    document = {
        "commit": git_commit(),
        "preset_sha256": preset_sha256,
        "curves": curves,
        "tscan_split": scan_reference_points(oh),
    }
    REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
