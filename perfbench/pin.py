#!/usr/bin/env python3
"""Regenerates perfbench/pins.json: the exact timed-phase message count of
the deterministic sim-seq workload for seeds 0..N-1.

    python3 perfbench/pin.py 64

Run from the repository root after run.py has built the binary. Rerun only
when the sim-seq workload sizes change; a count that moves otherwise is a
behaviour change of the sequential driver, which run.py reports as a
failed verdict.
"""

import json
import os
import subprocess
import sys

import run


def main():
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    binary = os.path.join(run.build_dir(), "perfbench")
    pins = {}
    for seed in range(seeds):
        out = subprocess.run(
            [binary, "--workload", "sim-seq", "--seed", str(seed),
             "--seconds", "0", "--min-reps", "1"],
            capture_output=True, text=True, check=True).stdout
        rep = json.loads(out.splitlines()[0])
        if not rep["ok"]:
            sys.exit("seed %d: %s" % (seed, rep["error"]))
        pins[str(seed)] = int(rep["values"]["messages"])
    with open(os.path.join(run.HERE, "pins.json"), "w") as f:
        json.dump({"sim-seq": pins}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
