"""The README's library example runs and its command lines parse."""

import re
import shlex
from pathlib import Path

from matalg.cli.main import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example") :]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    commands = [
        words
        for block in blocks
        for words in (shlex.split(line, comments=True) for line in block.splitlines())
        if words and words[0] == "matalg"
    ]
    assert len(commands) >= 10
    parser = _build_parser()
    for words in commands:
        args = parser.parse_args(words[1:])
        assert callable(args.handler), words
