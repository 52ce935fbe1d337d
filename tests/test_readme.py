"""The README's code examples run against the package as it stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_use_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # the block prints a prediction, then accuracy and ECE
    accuracy, ece = (float(v) for v in done.stdout.splitlines()[-1].split())
    assert 0.0 <= accuracy <= 1.0 and 0.0 <= ece <= 1.0
