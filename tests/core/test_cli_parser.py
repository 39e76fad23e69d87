"""The ``repro`` argument parser: documented commands and list flags.

Every ``repro ...`` command the docs show must parse.  Examples come
from the :mod:`repro.cli` module docstring and the fenced code blocks
of ``README.md`` and ``docs/TOUR.md``.  The shell around them — a
``$ `` prompt, ``#`` comments, redirects, ``&&`` chains and ``\\``
line continuations — is stripped first.  Wrapper commands
(``profile``/``report``) also parse the command they wrap, exactly as
they do when run.
"""

from __future__ import annotations

import argparse
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]


def _fenced_lines(text: str) -> Iterator[str]:
    """The lines inside the ``` code fences of a Markdown document."""
    inside = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            yield line


def _commands(lines: Iterator[str]) -> Iterator[List[str]]:
    """The argv (after ``repro``) of every command in ``lines``."""
    joined = "\n".join(lines).replace("\\\n", " ")
    for line in joined.splitlines():
        if not line.strip().lstrip("$ ").startswith("repro "):
            continue
        words = shlex.split(line, comments=True)
        segment: List[str] = []
        for word in words + ["&&"]:
            if word != "&&":
                segment.append(word)
                continue
            if segment[:1] == ["$"]:
                segment = segment[1:]
            if segment[:1] == ["repro"]:
                argv = []
                for arg in segment[1:]:
                    if arg[:1] in "<>|" or arg.startswith("2>"):
                        break
                    argv.append(arg)
                yield argv
            segment = []


def _documented() -> List[Tuple[str, List[str]]]:
    sources = [
        ("cli.py", repro.cli.__doc__.splitlines()),
        ("README.md", _fenced_lines((ROOT / "README.md").read_text())),
        (
            "docs/TOUR.md",
            _fenced_lines((ROOT / "docs" / "TOUR.md").read_text()),
        ),
    ]
    return [
        (source, argv)
        for source, lines in sources
        for argv in _commands(iter(lines))
    ]


DOCUMENTED = _documented()


def _parse(argv: List[str]) -> argparse.Namespace:
    try:
        return build_parser().parse_args(argv)
    except SystemExit as error:
        pytest.fail(f"'repro {' '.join(argv)}' does not parse ({error})")


@pytest.mark.parametrize(
    "source,argv",
    DOCUMENTED,
    ids=[f"{source}:{' '.join(argv)}" for source, argv in DOCUMENTED],
)
def test_documented_command_parses(source, argv):
    args = _parse(argv)
    wrapped = [word for word in getattr(args, "wrapped", []) or []]
    if wrapped[:1] == ["--"]:
        wrapped = wrapped[1:]
    if wrapped:
        _parse(wrapped)


def test_every_source_documents_commands():
    counts = {}
    for source, _ in DOCUMENTED:
        counts[source] = counts.get(source, 0) + 1
    assert counts["cli.py"] >= 10
    assert counts["README.md"] >= 10
    assert counts["docs/TOUR.md"] >= 15


def test_shell_syntax_is_stripped():
    lines = [
        "$ repro profile infer --json > p.json && repro report "
        "--profile p.json   # chained",
        "$ repro sweep mlp --seeds 0,1 \\",
        "      --cache-dir c --json > sweep.json",
        "some prose that is not a command",
    ]
    assert list(_commands(iter(lines))) == [
        ["profile", "infer", "--json"],
        ["report", "--profile", "p.json"],
        ["sweep", "mlp", "--seeds", "0,1", "--cache-dir", "c", "--json"],
    ]


def test_comma_lists_parse_to_numbers():
    args = build_parser().parse_args(
        ["sweep", "--rates", "0.0,0.02,", "--seeds", "0,1"]
    )
    assert args.rates == [0.0, 0.02]
    assert args.seeds == [0, 1]
    assert build_parser().parse_args(["reliability"]).rates is None


@pytest.mark.parametrize(
    "argv",
    [
        ["reliability", "--rates", "0.1,x"],
        ["reliability", "--rates", ","],
        ["sweep", "--rates", ""],
        ["sweep", "--seeds", "0,a"],
        ["sweep", "--seeds", ","],
    ],
)
def test_malformed_or_empty_list_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--layers", "0"],
        ["trace", "--batch", "0"],
        ["trace", "--gan", "--scheme", "bogus"],
        ["trace", "--scheme", "bogus"],
        ["fig5", "--layers", "0"],
        ["fig9", "--batch", "0"],
        ["table1", "--batch", "0"],
        ["area", "mnist", "--budget", "0"],
        ["infer", "mlp", "--count", "0"],
        ["train", "mlp", "--epochs", "0"],
        ["sensitivity", "--workers", "0"],
        ["reliability", "mlp", "--count", "0"],
        ["sweep", "mlp", "--workers", "0"],
        ["serve", "--smoke", "0"],
        ["bench", "--workers", "-1"],
        ["report", "trace", "--layers", "0"],
        ["profile", "trace", "--gan", "--scheme", "bogus"],
        ["top", "--port", "8077", "--count", "0"],
        ["top", "--port", "8077", "--interval", "-1"],
        ["top", "--port", "8077", "--interval", "nan"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_two_without_traceback(capsys, argv):
    """A value the callee would reject is a usage error, not a crash."""
    try:
        code = repro.cli.main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    assert code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["reliability", "sweep"])
def test_out_of_range_rate_exits_two_without_traceback(capsys, command):
    """A rate outside its axis's device range fails before any work."""
    assert repro.cli.main([command, "mlp", "--rates", "5"]) == 2
    err = capsys.readouterr().err
    assert "stuck_off_rate" in err and "Traceback" not in err
