"""The benchmark's probes find every name they wrap.

bench/layers.py wraps functions and methods under src/ by name. A rename
there would make every benchmark pass fail, so the probes are installed here
in a fresh interpreter and must report no missing target.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL_BOTH = """
import layers
layers.RunProbe().install()  # raises MissingTarget on a missing name
missing = layers.Spans().install()
assert missing == [], missing
"""


def test_bench_probes_find_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", INSTALL_BOTH], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
