"""Executable documentation: docs/campaign-format.md cannot drift.

Two guarantees, both demanded by the docs satellite's acceptance
criteria:

* every fenced ``toml``/``json`` block in the reference is a complete
  campaign that loads (``Campaign.load`` semantics) and expands,
* every key the campaign parser accepts -- sections, header keys,
  settings, axes, workload-source keys, filter semantics -- is named in
  the document, so a new key cannot land without documentation.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.campaign import expand, loads_campaign
from repro.campaign.model import KNOWN_AXES, KNOWN_SETTINGS
from repro.campaign.model import _SOURCE_KEYS  # the parser's own key set
from repro.runner.engine import TIERS
from repro.trace.store import TraceStore

DOCS = Path(__file__).resolve().parents[2] / "docs"
DOC = DOCS / "campaign-format.md"

FENCE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def _blocks(lang: str) -> list[str]:
    return [body for fence, body in FENCE.findall(DOC.read_text()) if fence == lang]


def test_document_exists_with_snippets():
    assert DOC.is_file(), "docs/campaign-format.md is part of the public docs"
    assert len(_blocks("toml")) >= 6
    assert len(_blocks("json")) >= 1


@pytest.mark.parametrize("index", range(len(_blocks("toml")) or 1))
def test_every_toml_snippet_loads_and_expands(index, tmp_path):
    blocks = _blocks("toml")
    text = blocks[index]
    campaign = loads_campaign(text, fmt="toml", base_dir=DOCS)
    expansion = expand(campaign, store=TraceStore(tmp_path / "traces"))
    assert expansion.cells, f"snippet {index} ({campaign.name}) expands to no cells"


def test_json_snippet_loads_and_expands(tmp_path):
    (text,) = _blocks("json")
    campaign = loads_campaign(text, fmt="json", base_dir=DOCS)
    assert expand(campaign, store=TraceStore(tmp_path / "traces")).cells


def test_python_snippets_compile():
    for body in _blocks("python"):
        compile(body, "<campaign-format.md>", "exec")


class TestKeyCoverage:
    """Every name the parser accepts appears in the reference text."""

    def test_axes_documented(self):
        text = DOC.read_text()
        for axis in KNOWN_AXES:
            assert f"`{axis}`" in text, f"axis {axis!r} undocumented"

    def test_settings_documented(self):
        text = DOC.read_text()
        for key in KNOWN_SETTINGS:
            assert f"`{key}`" in text, f"[defaults] key {key!r} undocumented"

    def test_workload_source_keys_documented(self):
        text = DOC.read_text()
        for key in _SOURCE_KEYS:
            assert f"`{key}`" in text, f"workload key {key!r} undocumented"

    def test_sections_and_header_keys_documented(self):
        text = DOC.read_text()
        for section in ("[campaign]", "[defaults]", "[axes]",
                        "[[include]]", "[[exclude]]", "[[override]]"):
            assert section in text, f"section {section} undocumented"
        for key in ("name", "description", "when", "set"):
            assert f"`{key}`" in text, f"key {key!r} undocumented"

    def test_tiers_documented(self):
        text = DOC.read_text()
        for tier in TIERS:
            assert f"`{tier}`" in text, f"tier {tier!r} undocumented"

    def test_report_formats_and_prune_documented(self):
        text = DOC.read_text()
        assert "--format json" in text and "--format csv" in text
        assert "prune" in text and "--dry-run" in text


class TestCrossLinks:
    def test_readme_links_to_docs(self):
        readme = (DOCS.parent / "README.md").read_text()
        assert "docs/architecture.md" in readme
        assert "docs/campaign-format.md" in readme

    def test_docs_cross_links_resolve(self):
        for doc in (DOC, DOCS / "architecture.md"):
            for target in re.findall(r"\]\(([\w./-]+\.md)\)", doc.read_text()):
                assert (doc.parent / target).is_file(), f"{doc.name}: broken link {target}"
