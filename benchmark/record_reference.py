"""Record the loss trajectory that pretrain_small's reference check compares
against. Run it from the root of a checkout whose training behaviour is the
reference:

    python3 benchmark/record_reference.py
"""

import json
import sys
from pathlib import Path

#: relative tolerance per loss term; float reordering in a refactor moves
#: these values by about 1e-12, a wrong gradient or update by far more
RTOL = 1e-6


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bench_workloads

    steps = bench_workloads.reference_trajectory()
    bench_workloads.REFERENCE_FILE.write_text(json.dumps(
        {"seed": bench_workloads.REFERENCE_SEED, "pairs": bench_workloads.REFERENCE_PAIRS,
         "rtol": RTOL, "steps": steps}, indent=1) + "\n")
    print(f"recorded {len(steps)} steps -> {bench_workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
