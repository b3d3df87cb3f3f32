"""The README's library quick start runs as written against the package
source, so a signature change cannot leave the documented API stale."""

import os
import re
import subprocess
import sys
from pathlib import Path

import festab as fs

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ,
               PYTHONPATH=str(Path(fs.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                            cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
