"""Every ``--flag`` that README.md shows for the ``srosda`` command is one
that ``cli.build_parser()`` defines, globally or on a subcommand.

Flags are collected from the ``srosda`` lines of fenced code blocks and from
inline code spans; ``pip`` and ``pytest`` command lines are left out.
"""

import argparse
import re
from pathlib import Path

from srosda.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
OTHER_TOOLS = ("pip", "pytest")


def readme_flags(text):
    """The ``--flags`` of the ``srosda`` lines of ``text``'s code blocks and
    of its inline code spans, other tools' command lines left out."""
    lines = [line.strip() for block in FENCE.findall(text)
             for line in block.splitlines()]
    lines = [line for line in lines if line.startswith("srosda ")]
    spans = re.findall(r"`([^`\n]+)`", FENCE.sub("", text))
    lines += [span for span in spans if not span.startswith(OTHER_TOOLS)]
    return {flag for line in lines for flag in FLAG.findall(line)}


def parser_flags(parser):
    """The long options of ``parser`` and of each of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def test_detector_reads_blocks_and_spans():
    text = ("```sh\nsrosda eval --checkpoint c --meta m\n"
            "pip install -e . --no-build-isolation\n```\n"
            "Say `--quiet`, or `srosda report --in r`, but not `pytest --lf`.\n")
    assert readme_flags(text) == {"--checkpoint", "--meta", "--quiet", "--in"}
    parser = argparse.ArgumentParser()
    parser.add_argument("--quiet", action="store_true")
    parser.add_subparsers().add_parser("eval").add_argument("--checkpoint")
    assert parser_flags(parser) == {"--help", "--quiet", "--checkpoint"}


def test_readme_shows_only_defined_flags():
    shown = readme_flags(README.read_text(encoding="utf-8"))
    # the round trip's flags are found, so the scan reads the README
    assert {"--spec", "--config", "--checkpoint", "--in"} <= shown
    assert sorted(shown - parser_flags(build_parser())) == []
