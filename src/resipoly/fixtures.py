"""Shipped level-graph documents used by tests and the verification suite."""

from __future__ import annotations

import json
from importlib import resources

from .graphs import load_level_graph

NAMES = ("fig1", "fig2", "k4", "c3", "loop1")


def document(name):
    """The named graph document as a fresh dict (expect block included)."""
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(NAMES)}")
    text = (
        resources.files("resipoly")
        .joinpath("data", f"{name}.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def load(name):
    """(Multigraph, LevelStructure, expect-dict) for a named fixture."""
    doc = document(name)
    graph, levels = load_level_graph(doc)
    return graph, levels, doc.get("expect", {})


def all_documents():
    return [(name, document(name)) for name in NAMES]
