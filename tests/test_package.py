"""The top-level package surface: the README example runs against it, and
every name it exports resolves."""

from __future__ import annotations

from pathlib import Path

import sawcascade

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs() -> None:
    namespace: dict = {}
    exec(compile(_quick_start_block(), "README quick start", "exec"), namespace)
    assert namespace["enc"].exact
    assert namespace["report"].verdict


def test_every_exported_name_resolves() -> None:
    assert len(set(sawcascade.__all__)) == len(sawcascade.__all__)
    for name in sawcascade.__all__:
        assert getattr(sawcascade, name) is not None, name
