"""The README's command-line examples print exactly what the program prints."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import codethresh
from codethresh.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command line, printed text) of each fenced block opening with `$ codethresh`."""
    out = []
    for block in re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S):
        if not block.startswith("$ codethresh "):
            continue
        lines = block.splitlines(keepends=True)
        command = lines.pop(0)
        while command.rstrip().endswith("\\"):
            command = command.rstrip()[:-1] + " " + lines.pop(0)
        out.append((command[2:].strip(), "".join(lines)))
    return out


def _mask(text: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9]+', '"elapsed_ms": 0', text)


EXAMPLES = _examples()


def test_readme_has_examples():
    assert {"threshold", "sweep", "simulate"} <= {
        word for command, _ in EXAMPLES for word in command.split()
    }


def test_readme_calls_name_package_attributes():
    # Inline `name(...)` spans outside the fenced blocks name the public API.
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    names = re.findall(r"`([A-Za-z_]\w*)\(", prose)
    assert "threshold_rate" in names
    assert [name for name in names if not hasattr(codethresh, name)] == []


def test_package_root_exports_only_documented_entry_points():
    # The reverse: each root name but the error and input types is called in the prose.
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    names = set(re.findall(r"`([A-Za-z_]\w*)\(", prose))
    types = {"BudgetError", "DomainError", "ValidationError", "LevelSetParams",
             "RandomCodeSpec", "ThresholdQuery", "__version__"}
    assert [name for name in codethresh.__all__ if name not in names | types] == []


@pytest.mark.parametrize(
    "command, printed", EXAMPLES, ids=[command for command, _ in EXAMPLES]
)
def test_readme_example_prints_as_shown(capsys, monkeypatch, command, printed):
    monkeypatch.setenv("CODE_THRESH_THREADS", "1")
    assert run(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _mask(captured.out) == _mask(printed)
