"""The library example in README.md runs as written, every `kinproj`
command line in it parses, and its config file resolves."""
import re
import shlex
from pathlib import Path

import numpy as np

from kinproj.scenarios_cli import build_parser, load_config, resolve_run

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


def test_readme_config_file_resolves(tmp_path):
    # the indented key = value block, read as `--config` reads it
    blocks = re.findall(r"\n\n((?: {4}\w+ *=.*\n)+)", README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    path = tmp_path / "run.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    opts = load_config(path)
    assert opts.pop("out")
    run = resolve_run(opts.pop("scenario"), **opts)
    assert (run.scenario.name, run.preset, run.epsilon) == ("double_sod_2d", "desk", 5e-5)
