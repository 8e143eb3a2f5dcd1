"""README's command examples and the flags its prose names must be ones
the CLI parser accepts."""

import re
import shlex

from anchorstat.cli import build_parser
from plumbing import ROOT

README = (ROOT / "README.md").read_text()


def _subparsers():
    parser = build_parser()
    (action,) = parser._subparsers._group_actions
    return parser, action.choices


def _sh_commands():
    """Each `anchorstat …` line of README's ``sh`` blocks, with
    backslash-continued lines joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["anchorstat"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _sh_commands()
    assert commands
    parser, _ = _subparsers()
    for argv in commands:
        parser.parse_args(argv)  # exits with status 2 on an unknown flag


def test_readme_flag_spans_name_real_flags():
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    _, subparsers = _subparsers()
    every_flag = {f for sub in subparsers.values() for f in sub._option_string_actions}
    checked = 0
    for span in re.findall(r"`([^`]+)`", prose):
        words = span.split()
        if words[0].startswith("--"):
            known = every_flag
        elif words[0] in subparsers:
            known = set(subparsers[words[0]]._option_string_actions)
        else:
            continue
        for word in words:
            if word.startswith("-"):
                assert word.split("=")[0] in known, f"README span `{span}`"
                checked += 1
    assert checked
