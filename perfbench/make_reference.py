"""Write the stored references the benchmark checks outputs against.

Run from the root of a checkout whose outputs are trusted::

    python3 perfbench/make_reference.py

It records, for the default workload sizes, every table4_alt row's
bottlenecks, capacity and optimum flag with digests of both rendered
reports, and every capacity_scan cell on the default seed. Any change to
these files is a change to what the benchmark accepts as correct, and
shows in review.
"""

import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, REFERENCE_DIR, CapacityScan, Table4Alt, fresh_program, sha256  # noqa: E402


def write(name, data):
    with open(os.path.join(REFERENCE_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    mh = fresh_program(os.path.join(os.getcwd(), "src"))
    warnings.simplefilter("ignore")

    w = Table4Alt(stored=False)
    radios = []
    for rows, report, _ in w.run(mh, w.setup(mh, DEFAULT_SEED), 0):
        radios.append(
            {
                "report_sha256": sha256(report),
                "rows": [
                    {
                        "key": [r.streams, r.mode, r.hops, r.z],
                        "forward_bottleneck_bps": r.forward_bottleneck_bps,
                        "reverse_bottleneck_bps": r.reverse_bottleneck_bps,
                        "capacity_bps": r.capacity_bps,
                        "optimum_flag": r.optimum_flag,
                    }
                    for r in rows
                ],
            }
        )
    write(w.name, {"radios": radios})

    w = CapacityScan(stored=False)
    inputs = w.setup(mh, DEFAULT_SEED)
    cells = []
    for i in range(w.radios):
        for index, mode, z, reports in w.run(mh, inputs, i):
            streams = {
                str(s): [r.forward_bottleneck_bps, r.reverse_bottleneck_bps, r.capacity_bps]
                for s, r in reports.items()
            }
            cells.append({"radio": index, "mode": mode, "z": z, "streams": streams})
    write(w.name, {"seed": DEFAULT_SEED, "radios": inputs["params"], "cells": cells})
    return 0


if __name__ == "__main__":
    sys.exit(main())
