"""The `$ qcext ...` examples under README's ## CLI print what the CLI prints.

Each example's expected lines are the lines after its command, up to the
next `$` line or the end of the block; they are compared with stdout and
stderr together.  A following `$ echo $?` line gives the exit code, and an
example without one must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from qcext.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    ids = set()
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        parts = re.split(r"^\$ (.*)\n", block, flags=re.M)
        steps = list(zip(parts[1::2], parts[2::2]))
        for i, (command, out) in enumerate(steps):
            if not command.startswith("qcext "):
                continue
            code = 0
            if i + 1 < len(steps) and steps[i + 1][0] == "echo $?":
                code = int(steps[i + 1][1])
            argv = shlex.split(command)[1:]
            # An example whose first three words repeat an earlier one's is
            # named by its whole command, so the earlier name stays put.
            name = " ".join(argv[:3])
            if name in ids:
                name = " ".join(argv)
            ids.add(name)
            examples.append(pytest.param(argv, out.splitlines(), code, id=name))
    return examples


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("argv, expected, code", EXAMPLES)
def test_readme_cli_example(argv, expected, code, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out + captured.err).splitlines() == expected
