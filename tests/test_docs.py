"""Docs health in tier-1: docstring audit, API freshness, link check, LoC counter.

CI's docs job additionally runs ``mkdocs build --strict`` (mkdocs is
not a test dependency); these tests keep everything mkdocs does not
need — docstring coverage, the generated API pages, every Markdown
link — green without network or extra installs.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _tools_importable():
    for path in (ROOT, os.path.join(ROOT, "docs"), os.path.join(ROOT, "tools")):
        if path not in sys.path:
            sys.path.insert(0, path)
    yield


def test_public_surface_is_fully_documented():
    import audit_docstrings

    findings = []
    for module_name in sorted(set(audit_docstrings.iter_modules("repro"))):
        findings.extend(audit_docstrings.audit_module(module_name))
    assert not findings, "undocumented public objects:\n" + "\n".join(
        f"  {where}: {what}" for where, what in findings
    )


def test_api_reference_is_fresh():
    """docs/api/ must match what gen_api.py generates from the code."""
    import gen_api

    pages = gen_api.generate()
    api_dir = os.path.join(ROOT, "docs", "api")
    committed = {
        name for name in os.listdir(api_dir) if name.endswith(".md")
    }
    assert committed == set(pages), (
        "docs/api/ file set drifted; run `PYTHONPATH=src python docs/gen_api.py`"
    )
    stale = []
    for name, content in pages.items():
        with open(os.path.join(api_dir, name)) as handle:
            if handle.read() != content:
                stale.append(name)
    assert not stale, (
        f"stale API pages {stale}; run `PYTHONPATH=src python docs/gen_api.py`"
    )


def test_markdown_links_resolve():
    import check_links

    anchor_cache = {}
    problems = []
    for rel_path in check_links.markdown_files(ROOT):
        for target, reason in check_links.check_file(rel_path, ROOT, anchor_cache):
            problems.append(f"{rel_path}: {target}: {reason}")
    assert not problems, "broken Markdown links:\n" + "\n".join(problems)


def test_docs_tree_covers_every_package():
    """Every repro subpackage has an API page and the nav lists it."""
    import gen_api

    src = os.path.join(ROOT, "src", "repro")
    packages = {
        f"repro.{name}"
        for name in os.listdir(src)
        if os.path.isdir(os.path.join(src, name)) and name != "__pycache__"
    }
    assert packages <= set(gen_api.PAGES), (
        f"packages missing from the API reference: {sorted(packages - set(gen_api.PAGES))}"
    )
    with open(os.path.join(ROOT, "mkdocs.yml")) as handle:
        nav = handle.read()
    for slug in gen_api.PAGES:
        assert f"api/{slug}.md" in nav, f"mkdocs nav missing api/{slug}.md"


def test_readme_links_into_docs():
    """README stays a quickstart + link hub: it must link the docs tree."""
    with open(os.path.join(ROOT, "README.md")) as handle:
        readme = handle.read()
    for target in ("docs/index.md", "docs/architecture.md", "docs/guides/serve.md"):
        assert target in readme, f"README.md no longer links {target}"


def test_loc_counts_code_lines_only():
    """tools/loc.py skips blanks, comments and docstrings, and counts
    every line a multi-line statement spans."""
    import loc

    source = '''"""Module docstring
over two lines."""

# a comment
import os  # trailing comment


def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return (x,
            text)
'''
    assert loc.code_lines(source) == 6
