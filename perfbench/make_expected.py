"""Regenerate ``accel_expected.json``, the accel_sweep correctness oracle.

    python3 perfbench/make_expected.py

Evaluates every design point ``accel_sweep`` can draw and stores each
network's simulated statistics (see ``workloads.network_stats``).  The
file pins the simulator's output: regenerate it only for a change that
is meant to alter what the accelerator model computes, and say so.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w
    from repro.models.specs import get_specs

    specs = {m: get_specs(m) for m in w.ACCEL_MODELS}
    expected = {}
    for point in itertools.product(w.ACCEL_MODELS, w.CANDIDATES, w.BANDWIDTHS, w.MEMORIES_KB, w.BATCHES):
        model, cand, bw, mem, batch = point
        base, other = w.evaluate_point(point, specs)
        for config, result in (("dcnn-fp32", base), (cand, other)):
            key = w.point_key(model, config, bw, mem, batch)
            stats = w.network_stats(result)
            if expected.setdefault(key, stats) != stats:
                raise RuntimeError(f"non-deterministic simulation at {key}")
    w.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} entries to {w.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
