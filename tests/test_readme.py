"""The README's shell examples, run through `cli.main` and compared with
the text the README shows, so the docs cannot drift from the program."""

import re
import shlex
from pathlib import Path

import pytest

from shiftlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# the examples whose every input and whole output the README shows
CHECKED = ("moments", "check-khypo", "joint", "scan")


def _sessions():
    """Each fenced block of ``$`` prompts as (files it writes with ``cat``,
    [(argv, stdout, exit code)] of its ``shiftlab`` commands); an
    ``echo $?`` line gives the exit code of the command before it."""
    sessions = []
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        if not block.startswith("$ "):
            continue
        files, commands, output = {}, [], None
        for line in block.splitlines():
            if line.startswith("$ "):
                words = shlex.split(line[2:])
                if words[0] == "cat":
                    output = files.setdefault(words[1], [])
                elif words[0] == "shiftlab":
                    output = []
                    commands.append([words[1:], output, 0])
                elif words == ["echo", "$?"]:
                    output = None
            elif output is None:
                commands[-1][2] = int(line)
            else:
                output.append(line)
        sessions.append((files, [(argv, "".join(f"{o}\n" for o in out), code) for argv, out, code in commands]))
    return {commands[0][0][0]: (files, commands) for files, commands in sessions if commands[0][0][0] in CHECKED}


_SESSIONS = _sessions()


def test_every_checked_example_is_in_the_readme():
    assert sorted(_SESSIONS) == sorted(CHECKED)


@pytest.mark.parametrize("name", CHECKED)
def test_readme_example_output(name, tmp_path, monkeypatch, capsys):
    files, commands = _SESSIONS[name]
    for file_name, lines in files.items():
        (tmp_path / file_name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv, expected, code in commands:
        assert (main(argv), capsys.readouterr().out) == (code, expected)
