"""Same-process timings of the projection resultants and of verify_all.

Run from a checkout, with that checkout's src on the path:

    PYTHONPATH=src python tests/time_resultants.py --repeats 30

Each case of test_resultant_digests runs --repeats times after one warm-up
call, interleaved round by round with the others; verify_all runs the same
way.  The JSON printed gives each case's median and best time in ms.  The
arguments of each case are built once, outside the timed call.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_resultant_digests import CASES  # noqa: E402

from kopelcas.certificates import verify_all  # noqa: E402
from kopelcas.exactpoly import resultant  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()
    calls = {name: (lambda pair=pair(): resultant(*pair, "v")) for name, (pair, _, _) in CASES.items()}
    calls["verify_all"] = verify_all
    times: dict[str, list[float]] = {name: [] for name in calls}
    for call in calls.values():
        call()
    for _ in range(args.repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append((time.perf_counter() - start) * 1000)
    print(json.dumps({name: {"median_ms": round(statistics.median(t), 4),
                             "best_ms": round(min(t), 4), "repeats": len(t)}
                      for name, t in times.items()}, indent=1))


if __name__ == "__main__":
    main()
