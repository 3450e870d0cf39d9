"""Command-line interface: enumerate Steiner structures from edge lists.

Usage (after installation)::

    python -m repro steiner-tree graph.txt --terminals a b c --limit 10
    python -m repro steiner-forest graph.txt --family a,b --family c,d
    python -m repro terminal-steiner graph.txt --terminals a b c
    python -m repro directed-steiner digraph.txt --root r --terminals x y
    python -m repro paths graph.txt --source s --target t
    python -m repro count graph.txt --terminals a b c
    python -m repro stp instance.stp --limit 5
    python -m repro zdd-count graph.txt --terminals a b c
    python -m repro ranked graph.txt --terminals a b c -k 5
    python -m repro yen graph.txt --source s --target t -k 3
    python -m repro chordless graph.txt --source s --target t
    python -m repro transversal hyperedges.txt --fk
    python -m repro figure1 graph.txt --terminals a b c
    python -m repro convert graph.txt out.stp --terminals a b c
    python -m repro batch jobs.jsonl --workers 4
    python -m repro serve --workers 4
    python -m repro serve --port 8080 --workers 4 --store store/
    python -m repro client jobs.jsonl --port 8080

Graph files are whitespace-separated edge lists, one edge per line
(``u v [weight]``); lines starting with ``#`` are ignored.  For the
directed command each line is an arc ``tail head``.  The ``stp``
command reads SteinLib ``.stp`` files instead.  Solutions are printed
one per line as sorted endpoint pairs, so the output is pipeline-
friendly (``head -n k`` exploits the linear delay: the process streams).

The service commands drive :mod:`repro.engine` and :mod:`repro.serve`.
``batch`` reads a ``jobs.jsonl`` file (one JSON job spec per line,
e.g. ``{"kind": "steiner-tree", "edges": [["a","b"],["b","c"]],
"terminals": ["a","c"]}``), fans the jobs across ``--workers``
processes with instance caching, and writes one JSON result per line —
output is byte-identical for every worker count.  ``serve`` without
``--port`` runs a stdin/stdout JSONL request loop (``{"op": "run",
"job": {...}}``, ``{"op": "batch", ...}``, ``{"op": "stats"}``,
``{"op": "quit"}``); with ``--port`` it runs the asyncio HTTP/NDJSON
streaming service (incremental solutions, persistent ``--store``
replay, resumable streams — see ``docs/guides/serve.md``), and
``client`` is its blocking smoke-test counterpart.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.directed_steiner import enumerate_minimal_directed_steiner_trees
from repro.core.steiner_forest import enumerate_minimal_steiner_forests
from repro.core.steiner_tree import (
    count_minimal_steiner_trees,
    enumerate_minimal_steiner_trees,
    enumerate_minimal_steiner_trees_linear_delay,
)
from repro.core.terminal_steiner import enumerate_minimal_terminal_steiner_trees
from repro.graphs.digraph import DiGraph
from repro.graphs.fastgraph import BACKENDS, resolve_backend
from repro.graphs.graph import Graph
from repro.paths.read_tarjan import enumerate_st_paths_undirected


def load_graph(path: str) -> Graph:
    """Read an undirected edge list (``u v`` per line, ``#`` comments)."""
    return load_weighted_graph(path)[0]


def load_weighted_graph(path: str) -> Tuple[Graph, dict]:
    """Read ``u v [weight]`` lines; missing weights default to 1."""
    g = Graph()
    weights: dict = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) < 2:
                raise SystemExit(f"{path}:{line_no}: expected 'u v', got {body!r}")
            eid = g.add_edge(parts[0], parts[1])
            if len(parts) > 2:
                try:
                    weights[eid] = float(parts[2])
                except ValueError:
                    raise SystemExit(
                        f"{path}:{line_no}: bad weight {parts[2]!r}"
                    ) from None
            else:
                weights[eid] = 1.0
    return g, weights


def load_hypergraph(path: str):
    """Read one whitespace-separated hyperedge per line."""
    from repro.hypergraph.hypergraph import Hypergraph

    edges = []
    universe: List[str] = []
    with open(path) as handle:
        for line in handle:
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            edge = body.split()
            edges.append(edge)
            for x in edge:
                if x not in universe:
                    universe.append(x)
    return Hypergraph(universe, edges)


def load_digraph(path: str) -> DiGraph:
    """Read a directed arc list (``tail head`` per line)."""
    d = DiGraph()
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) < 2:
                raise SystemExit(f"{path}:{line_no}: expected 'tail head', got {body!r}")
            d.add_arc(parts[0], parts[1])
    return d


def _render_undirected(graph: Graph, eids: Iterable[int]) -> str:
    pairs = sorted(
        "{}-{}".format(*sorted(map(str, graph.endpoints(e)))) for e in eids
    )
    return " ".join(pairs) if pairs else "(single-vertex tree)"


def _render_directed(digraph: DiGraph, aids: Iterable[int]) -> str:
    pairs = sorted(
        "{}->{}".format(*map(str, digraph.arc_endpoints(a))) for a in aids
    )
    return " ".join(pairs) if pairs else "(single-vertex tree)"


def _emit(lines: Iterable[str], limit: Optional[int], out) -> int:
    count = 0
    for line in lines:
        print(line, file=out)
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Linear-delay enumeration for minimal Steiner problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, directed=False):
        p.add_argument("graph", help="edge-list file")
        p.add_argument("--limit", type=int, default=None, help="stop after N solutions")

    def add_backend(p):
        p.add_argument(
            "--backend",
            type=resolve_backend,
            choices=BACKENDS,
            default="object",
            help="enumeration backend (fast = integer kernel)",
        )

    p = sub.add_parser("steiner-tree", help="enumerate minimal Steiner trees")
    add_common(p)
    p.add_argument("--terminals", nargs="+", required=True)
    p.add_argument(
        "--linear-delay",
        action="store_true",
        help="use the output-queue variant (Theorem 20)",
    )
    add_backend(p)

    p = sub.add_parser("steiner-forest", help="enumerate minimal Steiner forests")
    add_common(p)
    p.add_argument(
        "--family",
        action="append",
        required=True,
        help="comma-separated terminal family; repeatable",
    )

    p = sub.add_parser(
        "terminal-steiner", help="enumerate minimal terminal Steiner trees"
    )
    add_common(p)
    p.add_argument("--terminals", nargs="+", required=True)

    p = sub.add_parser(
        "directed-steiner", help="enumerate minimal directed Steiner trees"
    )
    add_common(p, directed=True)
    p.add_argument("--root", required=True)
    p.add_argument("--terminals", nargs="+", required=True)

    p = sub.add_parser("paths", help="enumerate simple s-t paths")
    add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("count", help="count minimal Steiner trees")
    p.add_argument("graph")
    p.add_argument("--terminals", nargs="+", required=True)

    p = sub.add_parser("stp", help="enumerate from a SteinLib .stp file")
    p.add_argument("graph", help=".stp instance file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count", action="store_true", help="print the count only")
    p.add_argument(
        "--optimum",
        action="store_true",
        help="print the minimum Steiner weight (Dreyfus–Wagner) instead",
    )

    p = sub.add_parser(
        "zdd-count", help="count minimal Steiner trees via the compiled ZDD"
    )
    p.add_argument("graph")
    p.add_argument("--terminals", nargs="+", required=True)
    p.add_argument(
        "--histogram", action="store_true", help="also print size -> count rows"
    )
    add_backend(p)

    p = sub.add_parser(
        "ranked", help="k lightest minimal Steiner trees (uses edge weights)"
    )
    p.add_argument("graph")
    p.add_argument("--terminals", nargs="+", required=True)
    p.add_argument("-k", type=int, default=5)
    add_backend(p)

    p = sub.add_parser("yen", help="k shortest loopless s-t paths by weight")
    p.add_argument("graph")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("-k", type=int, default=5)

    p = sub.add_parser("chordless", help="enumerate chordless (induced) s-t paths")
    p.add_argument("graph")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser(
        "transversal", help="enumerate minimal hypergraph transversals"
    )
    p.add_argument("graph", help="file with one whitespace-separated hyperedge per line")
    p.add_argument(
        "--fk",
        action="store_true",
        help="use the Fredman–Khachiyan incremental loop instead of Berge",
    )
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser(
        "figure1", help="render the improved enumeration tree (paper Figure 1)"
    )
    p.add_argument("graph")
    p.add_argument("--terminals", nargs="+", required=True)
    p.add_argument("--solutions", type=int, default=None, help="preprocessing cut n")

    p = sub.add_parser("convert", help="convert an edge list to SteinLib .stp")
    p.add_argument("graph", help="edge-list file (u v [weight] per line)")
    p.add_argument("output", help="path of the .stp file to write")
    p.add_argument("--terminals", nargs="+", required=True)
    p.add_argument("--name", default="", help="instance name for the Comment section")

    p = sub.add_parser(
        "batch", help="run a jobs.jsonl batch through the parallel engine"
    )
    p.add_argument("jobs", help="JSONL file: one JSON job spec per line")
    p.add_argument("--workers", type=int, default=1, help="worker process count")
    p.add_argument(
        "--text",
        action="store_true",
        help="print solution lines instead of JSON results",
    )
    p.add_argument("--no-cache", action="store_true", help="disable the instance cache")
    p.add_argument(
        "--cache-size", type=int, default=256, help="instance cache capacity"
    )
    p.add_argument(
        "--spill-dir", default=None, help="directory for evicted cache entries"
    )
    p.add_argument(
        "--stats", action="store_true", help="print a run summary to stderr"
    )
    p.add_argument(
        "--checkpoints",
        default=None,
        help="directory of per-job cursor checkpoints: every job (which "
        "then needs an 'id') resumes from its checkpoint, and re-running "
        "the same command continues the batch until all jobs exhaust",
    )
    p.add_argument(
        "--resume-mode",
        choices=("snapshot", "replay"),
        default="snapshot",
        help="how checkpointed jobs resume: thaw the serialized search "
        "state (O(state), suspendable kinds) or replay fast-forward "
        "(O(offset), always available)",
    )

    p = sub.add_parser(
        "snapshot",
        help="inspect a search-state snapshot (header only, no payload "
        "deserialization)",
    )
    p.add_argument(
        "file",
        help="a raw snapshot blob, or a cursor checkpoint JSON with an "
        "embedded snapshot (e.g. written by `repro batch --checkpoints`)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the raw header as JSON"
    )

    p = sub.add_parser(
        "serve",
        help="serve enumeration jobs (HTTP streaming with --port, else a "
        "stdin/stdout JSONL loop)",
    )
    p.add_argument("--workers", type=int, default=1, help="worker process count")
    p.add_argument("--no-cache", action="store_true", help="disable the instance cache")
    p.add_argument(
        "--cache-size", type=int, default=256, help="instance cache capacity"
    )
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="run the asyncio HTTP/NDJSON streaming service on this port "
        "(0 = ephemeral; omit for the legacy stdin/stdout loop)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address (with --port)")
    p.add_argument(
        "--store",
        default=None,
        help="directory for the persistent result store (replays survive restarts)",
    )
    p.add_argument(
        "--chunk", type=int, default=64, help="solutions per streamed chunk"
    )
    p.add_argument(
        "--max-deadline",
        type=float,
        default=None,
        help="server-side cap (seconds) on every job's deadline",
    )
    p.add_argument(
        "--registry",
        default=None,
        help="dataset registry directory (defaults to <store>/datasets "
        "when --store is set)",
    )
    p.add_argument(
        "--tenants",
        default=None,
        help="tenant registry directory: enables API keys and quotas",
    )
    p.add_argument(
        "--require-auth",
        action="store_true",
        help="reject anonymous requests (every request needs an API key)",
    )
    p.add_argument(
        "--warm",
        type=int,
        default=0,
        help="pre-warm this many of the most-used datasets at startup",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="write a mid-stream cursor checkpoint every N live solutions "
        "(makes a crashed replica's streams resumable by the fleet)",
    )
    p.add_argument(
        "--sndbuf",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound each connection's send buffering to ~BYTES so slow "
        "clients park their worker instead of filling kernel memory",
    )
    p.add_argument(
        "--join",
        default=None,
        metavar="ROUTER_URL",
        help="register with a fleet router (http://HOST:PORT) after binding",
    )
    p.add_argument(
        "--name",
        default=None,
        help="replica name announced to the fleet router (default: "
        "replica-<pid>)",
    )

    p = sub.add_parser(
        "fleet",
        help="run a sharded serve fleet: a consistent-hash router fronting "
        "N replica processes over one shared store",
    )
    p.add_argument(
        "--replicas", type=int, default=2, help="replica process count"
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="router port (0 = ephemeral, announced on stderr)",
    )
    p.add_argument("--host", default="127.0.0.1", help="router bind address")
    p.add_argument(
        "--store",
        required=True,
        help="shared result-store directory (all replicas point at it; "
        "checkpoints written there are what stream migration thaws)",
    )
    p.add_argument(
        "--workers", type=int, default=1, help="worker processes per replica"
    )
    p.add_argument(
        "--chunk", type=int, default=64, help="solutions per streamed chunk"
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=64,
        help="replica mid-stream checkpoint cadence (solutions)",
    )
    p.add_argument(
        "--registry",
        default=None,
        help="dataset registry directory (defaults to <store>/datasets)",
    )
    p.add_argument(
        "--tenants",
        default=None,
        help="tenant registry directory: fleet-wide API keys and quotas "
        "(enforced at the router; replicas stay anonymous)",
    )
    p.add_argument(
        "--require-auth",
        action="store_true",
        help="reject anonymous requests at the router",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client sustained requests/second (router admission)",
    )
    p.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-client burst allowance (defaults to 2x --rate)",
    )
    p.add_argument(
        "--max-streams",
        type=int,
        default=64,
        help="concurrent proxied streams across all clients",
    )
    p.add_argument(
        "--per-client-streams",
        type=int,
        default=8,
        help="concurrent streams any single client may hold",
    )
    p.add_argument(
        "--vnodes", type=int, default=64, help="virtual ring points per replica"
    )
    p.add_argument(
        "--sndbuf",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound per-connection buffering (router and replicas) to "
        "~BYTES — makes slow-client backpressure reach the workers",
    )
    p.add_argument(
        "--respawn",
        action="store_true",
        help="restart and re-join replicas that die (supervision loop)",
    )

    p = sub.add_parser(
        "dataset", help="manage the named-dataset registry (front door)"
    )
    dsub = p.add_subparsers(dest="action", required=True)
    d = dsub.add_parser("add", help="register a graph under a name")
    d.add_argument("name", help="dataset name ([A-Za-z0-9][A-Za-z0-9._-]*)")
    d.add_argument("graph", help="edge-list file (u v per line)")
    d.add_argument(
        "--keywords",
        default=None,
        help="node-keyword file: one `node kw kw ...` line per node",
    )
    d.add_argument("--registry", required=True, help="registry directory")
    d = dsub.add_parser("list", help="list registered datasets")
    d.add_argument("--registry", required=True, help="registry directory")
    d = dsub.add_parser("rm", help="unregister a dataset")
    d.add_argument("name", help="dataset name")
    d.add_argument("--registry", required=True, help="registry directory")

    p = sub.add_parser(
        "tenant", help="manage API keys and quotas (front door)"
    )
    tsub = p.add_subparsers(dest="action", required=True)
    t = tsub.add_parser("add", help="issue (or re-key) a tenant API key")
    t.add_argument("name", help="tenant name")
    t.add_argument(
        "--tier",
        default="free",
        choices=("free", "standard", "paid"),
        help="quota/priority tier",
    )
    t.add_argument(
        "--requests", type=int, default=None, help="override: requests per window"
    )
    t.add_argument(
        "--solutions", type=int, default=None, help="override: solutions per window"
    )
    t.add_argument(
        "--compute-seconds",
        type=float,
        default=None,
        help="override: compute seconds per window",
    )
    t.add_argument(
        "--window", type=float, default=None, help="override: window length (seconds)"
    )
    t.add_argument("--tenants", required=True, help="tenant registry directory")
    t = tsub.add_parser("list", help="list tenants and their usage")
    t.add_argument("--tenants", required=True, help="tenant registry directory")
    t = tsub.add_parser("revoke", help="revoke a tenant's API key")
    t.add_argument("name", help="tenant name")
    t.add_argument("--tenants", required=True, help="tenant registry directory")

    p = sub.add_parser(
        "client", help="stream jobs from a running `repro serve --port` instance"
    )
    p.add_argument(
        "jobs",
        nargs="?",
        default=None,
        help="jobs.jsonl file ('-' = stdin); omit with --stats/--health",
    )
    p.add_argument("--host", default="127.0.0.1", help="server address")
    p.add_argument("--port", type=int, required=True, help="server port")
    p.add_argument("--stream-id", default=None, help="resumable stream identifier")
    p.add_argument(
        "--offset", type=int, default=None, help="resume position (overrides checkpoint)"
    )
    p.add_argument("--chunk", type=int, default=None, help="per-chunk solution count")
    p.add_argument(
        "--events",
        action="store_true",
        help="print the raw NDJSON events instead of solution lines",
    )
    p.add_argument("--stats", action="store_true", help="print server stats and exit")
    p.add_argument(
        "--health", action="store_true", help="probe /healthz and exit 0/1"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Parse ``argv`` and run the selected subcommand; returns the exit
    status (0 on success)."""
    args = build_parser().parse_args(argv)
    return _run_command(args, out or sys.stdout)


def _run_command(args, out) -> int:
    if args.command == "steiner-tree":
        g = load_graph(args.graph)
        enum = (
            enumerate_minimal_steiner_trees_linear_delay
            if args.linear_delay
            else enumerate_minimal_steiner_trees
        )
        _emit(
            (
                _render_undirected(g, sol)
                for sol in enum(g, args.terminals, backend=args.backend)
            ),
            args.limit,
            out,
        )
    elif args.command == "steiner-forest":
        g = load_graph(args.graph)
        families = [f.split(",") for f in args.family]
        _emit(
            (
                _render_undirected(g, sol)
                for sol in enumerate_minimal_steiner_forests(g, families)
            ),
            args.limit,
            out,
        )
    elif args.command == "terminal-steiner":
        g = load_graph(args.graph)
        _emit(
            (
                _render_undirected(g, sol)
                for sol in enumerate_minimal_terminal_steiner_trees(g, args.terminals)
            ),
            args.limit,
            out,
        )
    elif args.command == "directed-steiner":
        d = load_digraph(args.graph)
        _emit(
            (
                _render_directed(d, sol)
                for sol in enumerate_minimal_directed_steiner_trees(
                    d, args.terminals, args.root
                )
            ),
            args.limit,
            out,
        )
    elif args.command == "paths":
        g = load_graph(args.graph)
        _emit(
            (
                "->".join(map(str, p.vertices))
                for p in enumerate_st_paths_undirected(g, args.source, args.target)
            ),
            args.limit,
            out,
        )
    elif args.command == "count":
        g = load_graph(args.graph)
        print(count_minimal_steiner_trees(g, args.terminals), file=out)
    elif args.command == "stp":
        _run_stp(args, out)
    elif args.command == "zdd-count":
        from repro.zdd.steiner import build_steiner_tree_zdd

        g = load_graph(args.graph)
        zdd = build_steiner_tree_zdd(g, args.terminals, backend=args.backend)
        print(zdd.count(), file=out)
        if args.histogram:
            for size, count in zdd.count_by_size().items():
                print(f"{size} {count}", file=out)
    elif args.command == "ranked":
        from repro.core.ranked import k_lightest_minimal_steiner_trees

        g, weights = load_weighted_graph(args.graph)
        for weight, sol in k_lightest_minimal_steiner_trees(
            g, args.terminals, weights, args.k, backend=args.backend
        ):
            print(f"{weight:g} {_render_undirected(g, sol)}", file=out)
    elif args.command == "yen":
        from repro.paths.yen import yen_k_shortest_paths

        g, weights = load_weighted_graph(args.graph)
        for weight, vertices, _eids in yen_k_shortest_paths(
            g, args.source, args.target, k=args.k, weights=weights
        ):
            print(f"{weight:g} " + "->".join(map(str, vertices)), file=out)
    elif args.command == "chordless":
        from repro.core.induced_paths import enumerate_chordless_st_paths

        g = load_graph(args.graph)
        _emit(
            (
                "->".join(map(str, p))
                for p in enumerate_chordless_st_paths(g, args.source, args.target)
            ),
            args.limit,
            out,
        )
    elif args.command == "transversal":
        from repro.hypergraph.dualization import enumerate_minimal_transversals_fk
        from repro.hypergraph.hypergraph import enumerate_minimal_transversals

        h = load_hypergraph(args.graph)
        enum = (
            enumerate_minimal_transversals_fk if args.fk else enumerate_minimal_transversals
        )
        _emit(
            (" ".join(sorted(map(str, t))) for t in enum(h)),
            args.limit,
            out,
        )
    elif args.command == "figure1":
        from repro.core.steiner_tree import steiner_tree_events
        from repro.enumeration.render import EnumerationTree, render_figure1

        g = load_graph(args.graph)
        tree = EnumerationTree.from_events(steiner_tree_events(g, args.terminals))
        print(render_figure1(tree, n=args.solutions), file=out)
    elif args.command == "convert":
        from repro.graphs.stp import relabel_to_stp, stp_from_parts, write_stp

        g, weights = load_weighted_graph(args.graph)
        missing = [t for t in args.terminals if t not in g]
        if missing:
            raise SystemExit(f"terminals not in the graph: {missing}")
        relabeled, terminals, mapping = relabel_to_stp(g, args.terminals)
        instance = stp_from_parts(relabeled, terminals, weights, name=args.name)
        write_stp(instance, args.output)
        pairs = ", ".join(f"{old}->{new}" for old, new in sorted(mapping.items()))
        print(f"wrote {args.output} ({relabeled.num_vertices} vertices); "
              f"label map: {pairs}", file=out)
    elif args.command == "batch":
        _run_batch(args, out)
    elif args.command == "snapshot":
        return _run_snapshot(args, out)
    elif args.command == "serve":
        _run_serve(args, out)
    elif args.command == "fleet":
        return _run_fleet(args, out)
    elif args.command == "dataset":
        return _run_dataset(args, out)
    elif args.command == "tenant":
        return _run_tenant(args, out)
    elif args.command == "client":
        return _run_client(args, out)
    return 0


def _serve_tiers(args):
    """``(memory cache | None, ResultStore | None)`` for the serve front ends."""
    from repro.engine.cache import InstanceCache

    cache = None if args.no_cache else InstanceCache(maxsize=args.cache_size)
    if args.store is None:
        return cache, None
    from repro.serve.store import ResultStore

    return cache, ResultStore(args.store)


def _interrupt_on_sigterm() -> None:
    """Make SIGTERM take Ctrl-C's shutdown path.

    Supervisors stop processes with SIGTERM, whose default action kills
    the process before it can close its worker processes (or fleet
    replicas), leaving them orphaned.  As a ``KeyboardInterrupt`` it
    unwinds through the same ``finally`` blocks SIGINT does.
    """
    import signal

    signal.signal(signal.SIGTERM, signal.default_int_handler)


def _run_serve(args, out) -> None:
    """The ``serve`` subcommand body (HTTP with --port, else stdio)."""
    cache, store = _serve_tiers(args)
    if args.port is None:
        if args.join is not None:
            raise SystemExit("--join requires the HTTP service (--port)")
        from repro.engine.service import serve

        stdio_cache: object
        if store is not None:
            from repro.serve.store import TieredCache

            stdio_cache = TieredCache(cache, store)
        else:
            stdio_cache = cache if cache is not None else False
        serve(out_stream=out, workers=args.workers, cache=stdio_cache)
        return
    import asyncio
    import os

    from repro.serve.server import EnumerationServer

    server = EnumerationServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=False if cache is None else cache,
        store=store,
        chunk=args.chunk,
        max_deadline=args.max_deadline,
        registry=args.registry,
        tenants=args.tenants,
        require_auth=args.require_auth,
        warm=args.warm,
        checkpoint_every=args.checkpoint_every,
        sndbuf=args.sndbuf,
    )

    async def _main() -> None:
        await server.start()
        print(f"serving on {args.host}:{server.port}", file=sys.stderr, flush=True)
        if args.join is not None:
            from repro.serve.fleet import join_router

            name = args.name or f"replica-{os.getpid()}"
            # Registration is a blocking HTTP call; keep the fresh
            # event loop responsive (the router health-probes us back
            # before accepting the join).
            await asyncio.get_running_loop().run_in_executor(
                None, join_router, args.join, name, args.host, server.port
            )
            print(
                f"joined fleet at {args.join} as {name}",
                file=sys.stderr,
                flush=True,
            )
        await server.serve_forever()

    _interrupt_on_sigterm()
    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


def _run_fleet(args, out) -> int:
    """The ``fleet`` subcommand: router + N supervised replica children."""
    import os
    import time as _time

    from repro.serve.fleet import FleetRouter, ReplicaProcess, RouterThread

    _interrupt_on_sigterm()
    registry = args.registry or os.path.join(args.store, "datasets")
    router = FleetRouter(
        host=args.host,
        port=args.port,
        vnodes=args.vnodes,
        registry=registry,
        tenants=args.tenants,
        require_auth=args.require_auth,
        max_streams=args.max_streams,
        per_client_streams=args.per_client_streams,
        rate=args.rate,
        burst=args.burst,
        sndbuf=args.sndbuf,
    )
    thread = RouterThread(router).start()
    url = f"http://{args.host}:{thread.port}"
    print(f"router on {args.host}:{thread.port}", file=sys.stderr, flush=True)

    def spawn(index: int) -> ReplicaProcess:
        proc = ReplicaProcess(
            f"replica-{index}",
            store=args.store,
            registry=registry,
            host=args.host,
            workers=args.workers,
            chunk=args.chunk,
            checkpoint_every=args.checkpoint_every,
            sndbuf=args.sndbuf,
            join=url,
        )
        proc.start()
        return proc

    replicas = {}
    try:
        for index in range(args.replicas):
            replicas[index] = spawn(index)
        print(
            f"fleet up: {args.replicas} replicas behind {url}",
            file=sys.stderr,
            flush=True,
        )
        while True:
            _time.sleep(1.0)
            for index, proc in list(replicas.items()):
                if proc.running:
                    continue
                print(
                    f"replica-{index} exited (code {proc.returncode})",
                    file=sys.stderr,
                    flush=True,
                )
                if args.respawn:
                    replicas[index] = spawn(index)
                    print(f"replica-{index} respawned", file=sys.stderr, flush=True)
                else:
                    del replicas[index]
            if not replicas:
                print("all replicas gone; shutting down", file=sys.stderr, flush=True)
                return 1
    except KeyboardInterrupt:
        return 0
    finally:
        for proc in replicas.values():
            proc.terminate()
        thread.stop()


def _load_edge_list(path: str) -> List[Tuple[str, str]]:
    """Raw ``(u, v)`` pairs from an edge-list file (weights ignored)."""
    edges = []
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) < 2:
                raise SystemExit(f"{path}: malformed edge line {line.strip()!r}")
            edges.append((parts[0], parts[1]))
    return edges


def _load_node_keywords(path: str) -> List[Tuple[str, List[str]]]:
    """``(node, keywords)`` pairs from a ``node kw kw ...`` file."""
    pairs = []
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            pairs.append((parts[0], parts[1:]))
    return pairs


def _run_dataset(args, out) -> int:
    """The ``dataset add/list/rm`` subcommand bodies."""
    from repro.exceptions import ReproError
    from repro.frontdoor.registry import DatasetRegistry

    registry = DatasetRegistry(args.registry)
    if args.action == "add":
        node_keywords = (
            _load_node_keywords(args.keywords) if args.keywords else None
        )
        try:
            record, deduped = registry.add(
                args.name,
                _load_edge_list(args.graph),
                node_keywords=node_keywords,
            )
        except ReproError as exc:
            raise SystemExit(str(exc)) from exc
        note = " (deduped: identical up to relabeling)" if deduped else ""
        print(
            f"registered {record.name}: {record.num_vertices} vertices, "
            f"{record.num_edges} edges, digest {record.digest[:12]}{note}",
            file=out,
        )
    elif args.action == "list":
        for record in registry.list():
            print(
                f"{record.name}\t{record.num_vertices}v\t{record.num_edges}e"
                f"\tuses={record.uses}\t{record.digest[:12]}",
                file=out,
            )
    elif args.action == "rm":
        if not registry.remove(args.name):
            raise SystemExit(f"unknown dataset {args.name!r}")
        print(f"removed {args.name}", file=out)
    return 0


def _run_tenant(args, out) -> int:
    """The ``tenant add/list/revoke`` subcommand bodies."""
    import json

    from repro.exceptions import ReproError
    from repro.frontdoor.tenants import TenantRegistry

    registry = TenantRegistry(args.tenants)
    if args.action == "add":
        try:
            tenant = registry.issue(
                args.name,
                tier=args.tier,
                requests=args.requests,
                solutions=args.solutions,
                compute_seconds=args.compute_seconds,
                window=args.window,
            )
        except ReproError as exc:
            raise SystemExit(str(exc)) from exc
        # The key is shown exactly once here; the registry file stores it
        # but `tenant list` never echoes it.
        print(f"{tenant.name} ({tenant.tier}) key: {tenant.key}", file=out)
    elif args.action == "list":
        print(json.dumps(registry.usage_table(), indent=2, sort_keys=True), file=out)
    elif args.action == "revoke":
        if not registry.revoke(args.name):
            raise SystemExit(f"unknown tenant {args.name!r}")
        print(f"revoked {args.name}", file=out)
    return 0


def _run_client(args, out) -> int:
    """The ``client`` subcommand body: stream jobs, print lines/events."""
    import json

    from repro.engine.jobs import load_jobs_jsonl
    from repro.exceptions import ReproError
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(host=args.host, port=args.port)
    if args.health:
        try:
            client.health()
        except Exception as exc:  # noqa: BLE001 — any failure means unhealthy
            print(f"unhealthy: {exc}", file=sys.stderr)
            return 1
        print("ok", file=out)
        return 0
    if args.stats:
        print(json.dumps(client.stats(), indent=2, sort_keys=True), file=out)
        return 0
    if args.jobs is None:
        raise SystemExit("client needs a jobs.jsonl file (or --stats/--health)")
    if args.jobs == "-":
        from repro.engine.jobs import EnumerationJob

        jobs = []
        for line_no, line in enumerate(sys.stdin, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            try:
                jobs.append(EnumerationJob.from_json(body))
            except (ReproError, ValueError) as exc:
                raise SystemExit(f"stdin:{line_no}: {exc}") from exc
    else:
        try:
            jobs = load_jobs_jsonl(args.jobs)
        except OSError as exc:
            raise SystemExit(f"cannot read {args.jobs}: {exc}") from exc
        except ReproError as exc:
            raise SystemExit(str(exc)) from exc
    if len(jobs) > 1 and (args.stream_id is not None or args.offset is not None):
        # A checkpoint binds one stream_id to one instance; fanning it
        # across different jobs would 409 on every job after the first.
        raise SystemExit("--stream-id/--offset need exactly one job")
    for job in jobs:
        try:
            for event in client.enumerate(
                job, stream_id=args.stream_id, chunk=args.chunk, offset=args.offset
            ):
                if args.events:
                    print(json.dumps(event, sort_keys=True), file=out, flush=True)
                elif event.get("event") == "solution":
                    print(event["line"], file=out, flush=True)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def _run_batch(args, out) -> None:
    """The ``batch`` subcommand body: jobs.jsonl in, JSONL results out."""
    import json

    from repro.engine.cache import InstanceCache
    from repro.engine.jobs import load_jobs_jsonl
    from repro.engine.service import BatchRunner
    from repro.exceptions import ReproError

    try:
        jobs = load_jobs_jsonl(args.jobs)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.jobs}: {exc}") from exc
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    cache = (
        False
        if args.no_cache
        else InstanceCache(maxsize=args.cache_size, spill_dir=args.spill_dir)
    )
    if args.checkpoints is not None:
        _run_batch_checkpointed(args, jobs, cache, out)
        return
    runner = BatchRunner(workers=args.workers, cache=cache)
    results = runner.run(jobs)
    for result in results:
        if args.text:
            for line in result.lines:
                print(line, file=out)
        else:
            print(json.dumps(result.to_dict(), sort_keys=True), file=out)
    if args.stats:
        stats = runner.stats()
        print(
            f"batch: {stats['jobs_run']} jobs, {stats['solutions']} solutions, "
            f"{stats['wall_seconds']:.3f}s on {args.workers} worker(s)",
            file=sys.stderr,
        )


def _run_batch_checkpointed(args, jobs, cache, out) -> None:
    """``repro batch --checkpoints DIR``: restartable cursor-driven runs.

    Each job streams through an :class:`EnumerationCursor`; a job that
    stops early (limit / deadline / budget) checkpoints to
    ``DIR/<job_id>.json`` — with the serialized search state embedded
    for suspendable kinds — and the next invocation of the same command
    resumes every unfinished job from its checkpoint (``--resume-mode``
    picks snapshot thaw vs replay fast-forward).  Exhausted jobs drop
    their checkpoints.
    """
    import hashlib
    import json
    import os

    from repro.engine.cursor import EnumerationCursor
    from repro.exceptions import ReproError

    os.makedirs(args.checkpoints, exist_ok=True)
    missing = [i for i, job in enumerate(jobs, 1) if not job.job_id]
    if missing:
        raise SystemExit(
            f"--checkpoints needs an 'id' on every job (missing on line(s) "
            f"{', '.join(map(str, missing))})"
        )
    # `cache` is False for --no-cache, else an InstanceCache (which is
    # falsy while empty — do not truthiness-test it away).
    cache = None if cache is False else cache
    for job in jobs:
        digest = hashlib.sha256(job.job_id.encode()).hexdigest()[:40]
        path = os.path.join(args.checkpoints, f"{digest}.json")
        try:
            if os.path.exists(path):
                cursor = EnumerationCursor.load(
                    path, cache=cache, job=job, resume_mode=args.resume_mode
                )
            else:
                cursor = EnumerationCursor(job, cache=cache)
            start = cursor.offset
            lines = cursor.drain()
        except ReproError as exc:
            raise SystemExit(f"job {job.job_id!r}: {exc}") from exc
        complete = cursor.exhausted and cursor.stop_reason is None
        if complete:
            if os.path.exists(path):
                os.unlink(path)
        else:
            cursor.save(path)
        if args.text:
            for line in lines:
                print(line, file=out)
        else:
            print(
                json.dumps(
                    {
                        "id": job.job_id,
                        "kind": job.kind,
                        "count": len(lines),
                        "offset": start,
                        "position": cursor.offset,
                        "exhausted": complete,
                        "stop_reason": cursor.stop_reason,
                        "lines": lines,
                    },
                    sort_keys=True,
                ),
                file=out,
            )


def _run_snapshot(args, out) -> int:
    """The ``snapshot`` subcommand body: dump a snapshot's header.

    Accepts a raw snapshot blob or any JSON document with an embedded
    base64 ``snapshot`` field (cursor checkpoints, store records).  Only
    the envelope header is parsed — the payload is never deserialized,
    so inspection is safe on untrusted files.
    """
    import base64
    import json

    from repro.core.suspend import SNAPSHOT_MAGIC, SnapshotError, read_snapshot_header

    try:
        with open(args.file, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}") from exc
    blob = None
    if raw.startswith(SNAPSHOT_MAGIC):
        blob = raw
    else:
        try:
            document = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            document = None
        node = document
        if isinstance(node, dict) and isinstance(node.get("state"), dict):
            node = node["state"]  # ResultStore cursor record wrapper
        if isinstance(node, dict) and node.get("snapshot"):
            try:
                blob = base64.b64decode(node["snapshot"])
            except (ValueError, TypeError):
                blob = None
    if blob is None:
        print(f"{args.file}: no snapshot found", file=sys.stderr)
        return 1
    try:
        header = read_snapshot_header(blob)
    except SnapshotError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(header, sort_keys=True), file=out)
        return 0
    print(f"kind:        {header['kind']}", file=out)
    print(f"backend:     {header['backend']}", file=out)
    print(f"fingerprint: {header['fingerprint']}", file=out)
    print(f"frames:      {header.get('frames')}", file=out)
    print(f"emitted:     {header.get('emitted')}", file=out)
    print(f"python:      {header.get('python')}", file=out)
    print(f"payload:     {len(blob)} bytes", file=out)
    return 0


def _run_stp(args, out) -> None:
    """The ``stp`` subcommand body (undirected and directed instances)."""
    from repro.core.optimum import dreyfus_wagner
    from repro.graphs.stp import read_stp

    inst = read_stp(args.graph)
    if args.optimum:
        if inst.is_directed:
            raise SystemExit("--optimum supports undirected instances only")
        weight, _tree = dreyfus_wagner(inst.graph, inst.terminals, inst.weights)
        print(f"{weight:g}", file=out)
        return
    if inst.is_directed:
        if inst.root is None:
            raise SystemExit("directed STP instance needs a Root line")
        terminals = [t for t in inst.terminals if t != inst.root]
        solutions = enumerate_minimal_directed_steiner_trees(
            inst.graph, terminals, inst.root
        )
        lines = (_render_directed(inst.graph, sol) for sol in solutions)
    else:
        solutions = enumerate_minimal_steiner_trees(inst.graph, inst.terminals)
        lines = (_render_undirected(inst.graph, sol) for sol in solutions)
    if args.count:
        print(sum(1 for _ in solutions), file=out)
        return
    _emit(lines, args.limit, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
