import os
import pathlib
import re
import shlex
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


def command_lines() -> list[str]:
    """The commands of the README's "Command line" block, each with its
    backslash continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return block.replace("\\\n", " ").splitlines()


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # In order, in one directory: the later commands read what the earlier
    # ones wrote. `--jobs 4` is capped at the CPU count.
    from qrggsim.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QRGG_SEED", raising=False)
    lines = command_lines()
    assert len(lines) == 8
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "qrggsim"
        assert main(argv) == 0, (line, capsys.readouterr().err)
    assert {"g.json", "result.json", "trials.csv", "hist.csv", "hist.svg"} <= {
        p.name for p in tmp_path.iterdir()}
