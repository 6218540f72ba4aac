"""Regenerate src/degctrl/data/golden_caps.json.

Runs the full verification ensemble on the reference configuration (plus an
s-sweep for the two Carleman families), records the observed maximum ratio
per check, and writes caps = max * 10 (with a small floor for ratios that
underflow to zero). Run from the repository root:

    python3 scripts/generate_golden_caps.py

``golden_caps()`` returns the same document without writing it.
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from degctrl.config import load_config, parse_config  # noqa: E402
from degctrl.verify import run_verifications  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), "..")
FLOOR = 1e-12


def collect(cfg):
    rows, _ = run_verifications(cfg)
    out = {}
    for row in rows:
        name, ratio = row[0], row[7]
        out[name] = max(out.get(name, 0.0), ratio)
    return out


def golden_caps() -> dict:
    """{"observed_max": ..., "caps": ...} as the shipped file holds them."""
    cfg = load_config(os.path.join(ROOT, "configs", "default.json"))
    maxima = collect(cfg)
    for s in (2.0, 4.0, 8.0):
        raw = copy.deepcopy(cfg.raw)
        raw["carleman"]["s"] = s
        raw["verify"]["checks"] = ["carleman_phi", "carleman_A"]
        for name, r in collect(parse_config(raw)).items():
            maxima[name] = max(maxima[name], r)
    caps = {name: max(10.0 * r, FLOOR) for name, r in sorted(maxima.items())}
    return {"observed_max": maxima, "caps": caps}


def main():
    doc = golden_caps()
    path = os.path.join(ROOT, "src", "degctrl", "data", "golden_caps.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(doc["caps"], indent=2))


if __name__ == "__main__":
    main()
