import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEMOS = REPO / "demos"


def test_demos_reproduce_their_outputs(tmp_path):
    # each demo writes next to itself, into output/: run copies of them and
    # compare what they write with the committed files, byte for byte
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    for script in scripts:
        shutil.copy(script, tmp_path)
        subprocess.run([sys.executable, tmp_path / script.name], cwd=tmp_path,
                       env=env, check=True, capture_output=True)
    written = sorted(p.name for p in (tmp_path / "output").iterdir())
    assert written == sorted(p.name for p in (DEMOS / "output").iterdir())
    for name in written:
        assert (tmp_path / "output" / name).read_bytes() == \
            (DEMOS / "output" / name).read_bytes(), name
