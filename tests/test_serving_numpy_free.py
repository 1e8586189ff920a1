"""The serving path runs on the standard library alone.

Other layers (the SPICE engine, the ILP compiler) use numpy, scipy
and networkx; a serving run must not pull them in, because the import
alone shows up in every serving benchmark's memory and set-up time.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("numpy", "scipy", "networkx")

SCRIPT = f"""
import sys
from repro.serving import GeoRouter, ServingSimulator, ShardedEngine

ServingSimulator("SMART", replicas=2).run_scenario("bursty", 2000, 1)
ShardedEngine(2, mode="inline").run_scenario("steady", 2000, 1)
GeoRouter(4, topology="ring", geo="follow_sun",
          mode="inline").run_scenario("diurnal", 2000, 1)
print(" ".join(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_serving_runs_import_no_numpy(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"),
               REPRO_RUN_STORE=str(tmp_path / "runs.jsonl"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert not loaded, (
        f"a serving run imported {', '.join(loaded)}: `import numpy` "
        f"alone costs about 11 MB of RSS and 0.15 s, and a numpy-column "
        f"trace prototype read peak_rss_mb +22% to +42% over the "
        f"pure-Python draws, past the benchmark's 10% bound")
