import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quickstart_blocks() -> list[str]:
    """The Python blocks of the README's "Library quickstart" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_quickstart_runs():
    # The blocks run as one script, the second using the first's model, so
    # a public name that is removed or renamed fails here. run_experiment
    # caps jobs=4 at the CPU count.
    blocks = quickstart_blocks()
    assert len(blocks) == 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.splitlines()) == 5
