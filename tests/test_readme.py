"""The library example in README.md runs as written, and every `kinproj`
command line in it parses."""
import re
import shlex
from pathlib import Path

import numpy as np

from kinproj.scenarios_cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert np.all(np.isfinite(scope["f"]))


def test_readme_command_lines_parse(capsys):
    # indented example lines and inline `kinproj ...` spans; parsed, never run
    lines = re.findall(r"(?:^ {4}|`)kinproj ([^`\n]*)", README.read_text(encoding="utf-8"), re.M)
    assert len(lines) >= 4
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line))
        except SystemExit as exc:  # --help exits 0 after printing; a bad flag exits 2
            assert exc.code == 0, f"kinproj {line}"
