"""Generate the Markdown API reference under ``docs/api/`` from docstrings.

One page per package/module group (``repro.graphs``, ``repro.engine``,
``repro.serve``, ...), each listing the module's public functions and
classes with their signatures and docstring lead paragraphs.  The
output is deterministic and annotation-free (signatures render
parameter names and defaults only), so the committed pages are
byte-identical across the CI Python matrix; ``tests/test_docs.py``
regenerates them into a temp directory and fails when the committed
copies drift from the code.

Usage::

    PYTHONPATH=src python docs/gen_api.py            # (re)write docs/api/
    PYTHONPATH=src python docs/gen_api.py --check    # fail if stale
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
from typing import Dict, List, Optional

#: page slug -> (title, module names on the page)
PAGES = {
    "repro": (
        "repro (top level)",
        ["repro", "repro.exceptions", "repro.jsonfile", "repro.cli"],
    ),
    "repro.graphs": (
        "repro.graphs — graph substrate",
        [
            "repro.graphs",
            "repro.graphs.graph",
            "repro.graphs.digraph",
            "repro.graphs.fastgraph",
            "repro.graphs.contraction",
            "repro.graphs.bridges",
            "repro.graphs.spanning",
            "repro.graphs.traversal",
            "repro.graphs.shortest_paths",
            "repro.graphs.linegraph",
            "repro.graphs.lca",
            "repro.graphs.generators",
            "repro.graphs.io",
            "repro.graphs.stp",
            "repro.graphs.interop",
        ],
    ),
    "repro.paths": (
        "repro.paths — path enumeration",
        [
            "repro.paths",
            "repro.paths.read_tarjan",
            "repro.paths.fastpaths",
            "repro.paths.simple",
            "repro.paths.yen",
        ],
    ),
    "repro.core": (
        "repro.core — the paper's enumerators",
        [
            "repro.core",
            "repro.core.tree_search",
            "repro.core.steiner_tree",
            "repro.core.steiner_forest",
            "repro.core.terminal_steiner",
            "repro.core.directed_steiner",
            "repro.core.induced_steiner",
            "repro.core.induced_paths",
            "repro.core.minimum_enum",
            "repro.core.ranked",
            "repro.core.backend",
            "repro.core.optimum",
            "repro.core.verification",
            "repro.core.baselines",
            "repro.core.internal_steiner",
            "repro.core.group_steiner",
        ],
    ),
    "repro.enumeration": (
        "repro.enumeration — delay instrumentation",
        [
            "repro.enumeration",
            "repro.enumeration.delay",
            "repro.enumeration.events",
            "repro.enumeration.queue_method",
            "repro.enumeration.render",
        ],
    ),
    "repro.hypergraph": (
        "repro.hypergraph — transversal enumeration",
        [
            "repro.hypergraph",
            "repro.hypergraph.hypergraph",
            "repro.hypergraph.dualization",
        ],
    ),
    "repro.zdd": (
        "repro.zdd — ZDD compilation",
        ["repro.zdd", "repro.zdd.zdd", "repro.zdd.steiner"],
    ),
    "repro.datagraph": (
        "repro.datagraph — keyword search",
        [
            "repro.datagraph",
            "repro.datagraph.model",
            "repro.datagraph.search",
            "repro.datagraph.ranked",
            "repro.datagraph.kfragments",
        ],
    ),
    "repro.engine": (
        "repro.engine — batch runtime",
        [
            "repro.engine",
            "repro.engine.jobs",
            "repro.engine.cache",
            "repro.engine.pool",
            "repro.engine.cursor",
            "repro.engine.service",
        ],
    ),
    "repro.serve": (
        "repro.serve — streaming service",
        [
            "repro.serve",
            "repro.serve.server",
            "repro.serve.httpd",
            "repro.serve.store",
            "repro.serve.workers",
            "repro.serve.arena",
            "repro.serve.client",
            "repro.serve.protocol",
        ],
    ),
    "repro.serve.fleet": (
        "repro.serve.fleet — sharded multi-replica serving",
        [
            "repro.serve.fleet",
            "repro.serve.fleet.hashring",
            "repro.serve.fleet.router",
            "repro.serve.fleet.replicas",
            "repro.serve.fleet.admission",
            "repro.serve.fleet.proxy",
        ],
    ),
    "repro.frontdoor": (
        "repro.frontdoor — multi-tenant query front door",
        [
            "repro.frontdoor",
            "repro.frontdoor.registry",
            "repro.frontdoor.tenants",
            "repro.frontdoor.answers",
            "repro.frontdoor.scheduling",
            "repro.frontdoor.metrics",
        ],
    ),
    "repro.bench": (
        "repro.bench — measurement harness",
        ["repro.bench", "repro.bench.harness", "repro.bench.workloads"],
    ),
}


def _signature(obj) -> str:
    """Render a call signature with names and defaults, no annotations."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    parts: List[str] = []
    for param in sig.parameters.values():
        name = param.name
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            name = "*" + name
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            name = "**" + name
        if param.default is not inspect.Parameter.empty:
            name += f"={param.default!r}"
        parts.append(name)
    return "(" + ", ".join(parts) + ")"


def _lead(doc: Optional[str]) -> str:
    """The docstring's lead paragraph, dedented and joined."""
    if not doc:
        return "*(undocumented)*"
    paragraph = inspect.cleandoc(doc).split("\n\n", 1)[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def _module_section(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    out: List[str] = [f"## `{module_name}`", ""]
    out.append(_lead(module.__doc__))
    out.append("")
    functions = []
    classes = []
    for name in sorted(vars(module)):
        if name.startswith("_"):
            continue
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module_name:
            functions.append((name, obj))
        elif inspect.isclass(obj) and obj.__module__ == module_name:
            classes.append((name, obj))
    for name, obj in classes:
        out.append(f"### class `{name}`")
        out.append("")
        out.append(_lead(obj.__doc__))
        out.append("")
        methods = []
        for attr_name in sorted(vars(obj)):
            if attr_name.startswith("_"):
                continue
            attr = vars(obj)[attr_name]
            if inspect.isfunction(attr):
                methods.append((attr_name, attr, _signature(attr)))
            elif isinstance(attr, (classmethod, staticmethod)):
                methods.append((attr_name, attr.__func__, _signature(attr.__func__)))
            elif isinstance(attr, property) and attr.fget is not None:
                methods.append((attr_name, attr.fget, "  *(property)*"))
        for attr_name, attr, sig in methods:
            suffix = sig if sig.startswith("  ") else f"`{sig}`"
            out.append(f"- **`{attr_name}`**{suffix} — {_lead(attr.__doc__)}")
        if methods:
            out.append("")
    for name, obj in functions:
        out.append(f"### `{name}{_signature(obj)}`")
        out.append("")
        out.append(_lead(obj.__doc__))
        out.append("")
    return out


def render_page(slug: str) -> str:
    """The full Markdown body for one API page."""
    title, modules = PAGES[slug]
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        "*Generated from docstrings by `docs/gen_api.py` — do not edit by "
        "hand; run `PYTHONPATH=src python docs/gen_api.py` to refresh.*"
    )
    lines.append("")
    for module_name in modules:
        lines.extend(_module_section(module_name))
    return "\n".join(lines).rstrip() + "\n"


def render_index() -> str:
    """The ``docs/api/index.md`` table of contents."""
    lines = [
        "# API reference",
        "",
        "*Generated from docstrings by `docs/gen_api.py` — do not edit by "
        "hand; run `PYTHONPATH=src python docs/gen_api.py` to refresh.*",
        "",
        "| page | modules |",
        "|---|---|",
    ]
    for slug in PAGES:
        title, modules = PAGES[slug]
        lines.append(f"| [{title}]({slug}.md) | {len(modules)} modules |")
    return "\n".join(lines) + "\n"


def generate() -> Dict[str, str]:
    """All API pages as ``{relative filename: content}``."""
    pages = {f"{slug}.md": render_page(slug) for slug in PAGES}
    pages["index.md"] = render_index()
    return pages


def main(argv=None) -> int:
    """Write (or with ``--check`` verify) ``docs/api/``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when the committed pages are stale",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "api"),
        help="output directory (default docs/api/)",
    )
    args = parser.parse_args(argv)
    pages = generate()
    if args.check:
        stale = []
        for name, content in pages.items():
            path = os.path.join(args.out, name)
            try:
                with open(path) as handle:
                    if handle.read() != content:
                        stale.append(name)
            except FileNotFoundError:
                stale.append(name)
        if stale:
            print(
                "stale API reference (run `PYTHONPATH=src python docs/gen_api.py`):",
                file=sys.stderr,
            )
            for name in stale:
                print(f"  docs/api/{name}", file=sys.stderr)
            return 1
        print(f"API reference up to date ({len(pages)} pages)")
        return 0
    os.makedirs(args.out, exist_ok=True)
    for name, content in pages.items():
        with open(os.path.join(args.out, name), "w") as handle:
            handle.write(content)
    print(f"wrote {len(pages)} pages to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
