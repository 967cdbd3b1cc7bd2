"""Every cited departure from the paper is written down.

Code cites ``docs/substitutions.md`` as "substitution #N" or "section
N"; each cited number must name a heading of that document, so no
citation points at text that does not exist.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "substitutions.md"
TREES = ("src", "tests", "benchmarks", "examples")

CITATION = re.compile(r"docs/substitutions\.md,?\s+(substitution\s+#|section\s+)(\d+)")


def _citations() -> list[tuple[Path, str, str]]:
    out = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            for kind, number in CITATION.findall(path.read_text()):
                out.append((path, kind, number))
    return out


def test_citations_are_found():
    """The scan itself works: the known citing modules are seen."""
    cited = {path.name for path, _, _ in _citations()}
    assert {"synthetic.py", "curves.py", "mc.py", "flit.py"} <= cited


def test_every_cited_number_exists():
    text = DOC.read_text()
    substitutions = set(re.findall(r"^### #(\d+) ", text, re.MULTILINE))
    sections = set(re.findall(r"^## (\d+)\. ", text, re.MULTILINE))
    missing = [
        f"{path.relative_to(ROOT)}: {kind}{number}"
        for path, kind, number in _citations()
        if number not in (substitutions if kind.startswith("sub") else sections)
    ]
    assert not missing, f"citations with no heading in {DOC.name}: {missing}"


def test_no_citation_of_a_missing_design_doc():
    stale = [
        str(path.relative_to(ROOT))
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path != Path(__file__).resolve() and "DESIGN.md" in path.read_text()
    ]
    assert not stale, f"files cite DESIGN.md, which does not exist: {stale}"
