"""The docs name only modules and attributes that exist.

Every ``repro.*`` dotted name in the top-level docs must import as a
module or resolve as an attribute of one, so a rename or deletion that
forgets its documentation fails here instead of misleading a reader.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md", "docs/TUTORIAL.md", "EXPERIMENTS.md",
        "PAPER.md")
# A name followed by "/" is a schema id (``repro.bench/1``), not code.
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+(?![\w/])")


def resolves(name: str) -> bool:
    """True if ``name`` is a module, or an attribute chain on one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def dotted_names(doc: str) -> list[str]:
    return sorted(set(DOTTED.findall((ROOT / doc).read_text())))


@pytest.mark.parametrize("doc", DOCS)
def test_every_repro_name_resolves(doc):
    names = dotted_names(doc)
    assert names, f"{doc} names no repro.* modules"
    missing = [name for name in names if not resolves(name)]
    assert missing == [], f"{doc} cites missing names: {missing}"
