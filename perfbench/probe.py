"""One cold start, timed from inside a fresh interpreter; prints seconds.

    python3 perfbench/probe.py <workload> <seed>

desk/coco: import, generate the pass's scenes, run the first episode.
bench: import only (`vlodtta bench` generates its scenes inside the timed run).
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    if name == "bench":
        import vlodtta.cli  # noqa: F401
    else:
        import harness

        suites = harness.build_suites(harness.WORKLOADS[name], seed)
        suite = suites[0]
        harness.adapt.adapt_episode(suite.scenes[0][0], suite.world.pool, harness.adapt.EpisodeConfig())
    print(time.perf_counter() - START)
