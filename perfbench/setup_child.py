"""One set-up measurement in a fresh interpreter.

    python3 perfbench/setup_child.py <workload> <work_dir>

Times importing mrlrc plus building the workload's codes (field tables,
tower, construction with its self-checks) and the write_bundle ->
read_bundle round trip, and prints {"setup_s": seconds} as JSON.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import setup_codes

    setup_codes(sys.argv[1], sys.argv[2])
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
