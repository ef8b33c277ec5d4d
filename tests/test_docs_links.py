"""Every document the repository points at exists.

Two kinds of reference are checked: relative ``*.md`` links in the
top-level documents and ``docs/*.md``, resolved against the linking
file's directory; and ``docs/<NAME>.md`` paths named anywhere in
``src/``, ``benchmarks/`` or ``tests/`` (docstrings, comments, CLI help
strings), resolved against the repository root.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)``; the target ends at whitespace or ``)``.
_MD_LINK = re.compile(r"\]\(([^)\s]+)\)")
#: A ``docs/<NAME>.md`` path inside program text.
_DOCS_PATH = re.compile(r"docs/[A-Za-z0-9_.-]+\.md")


def _markdown_files():
    names = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    files = [ROOT / name for name in names]
    files += sorted((ROOT / "docs").glob("*.md"))
    return files


def _program_files():
    for top in ("src", "benchmarks", "tests"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".py", ".c", ".json", ".toml"):
                yield path


def _relative_md_target(target):
    """The file part of a relative ``*.md`` link, or ``None``."""
    if "://" in target or target.startswith(("#", "mailto:")):
        return None
    path = target.split("#", 1)[0]
    return path if path.endswith(".md") else None


@pytest.mark.parametrize(
    "doc", _markdown_files(), ids=lambda p: str(p.relative_to(ROOT))
)
def test_relative_markdown_links_resolve(doc):
    assert doc.is_file(), f"{doc.relative_to(ROOT)} is missing"
    dangling = []
    for target in _MD_LINK.findall(doc.read_text(encoding="utf-8")):
        path = _relative_md_target(target)
        if path is not None and not (doc.parent / path).is_file():
            dangling.append(target)
    assert dangling == [], f"{doc.relative_to(ROOT)} links to missing files"


def test_docs_paths_named_in_program_files_exist():
    dangling = []
    for path in _program_files():
        text = path.read_text(encoding="utf-8", errors="replace")
        for name in sorted(set(_DOCS_PATH.findall(text))):
            if not (ROOT / name).is_file():
                dangling.append(f"{path.relative_to(ROOT)}: {name}")
    assert dangling == []


def test_link_parsing():
    # Spelled in pieces, so this file names no missing document itself.
    missing = "docs/" + "MISSING.md"
    text = f"see [a]({missing}#x), [b](https://x.invalid/B.md), [c](#top)"
    targets = [_relative_md_target(t) for t in _MD_LINK.findall(text)]
    assert targets == [missing, None, None]
    assert _DOCS_PATH.findall(f"(see {missing}).") == [missing]
