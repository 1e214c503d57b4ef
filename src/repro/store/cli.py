"""``repro-store`` — run, query and serve stored enumerations.

Usage::

    repro-store [--store DIR] run --dataset enron --k 5 --eta 0.1
    repro-store [--store DIR] query list [--format table|csv|json]
    repro-store [--store DIR] query show DIGEST [--cliques]
    repro-store [--store DIR] query diff DIGEST DIGEST
    repro-store [--store DIR] query export DIGEST [--out PATH]
    repro-store [--store DIR] serve [--socket HOST:PORT]

``query show`` renders **only stored bytes**: its output for a digest
is byte-identical whether the entry was written by a live run a moment
ago or replayed from the store a month later — that identity is what
the CI ``store`` job asserts.  ``query diff`` exits 0 when the two
runs' clique sets are identical, 1 when they differ, 2 on usage
errors (mirroring ``repro.obs diff``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.store.service import EnumerationService, ServeLoop, parse_eta
from repro.store.store import DEFAULT_STORE_DIR, RunStore, StoredRun

_KEY_FIELDS = (
    "dataset", "k", "eta", "backend", "variant", "ordering", "pivot",
    "mpivot", "kpivot", "reduction", "procedure", "salt",
)


# ----------------------------------------------------------------------
# rendering (shared by ``run`` and ``query`` — byte-identity by design)
# ----------------------------------------------------------------------
def list_row(stored: StoredRun) -> Dict[str, object]:
    key = stored.key
    return {
        "digest": stored.digest[:12],
        "run": stored.record.label,
        "dataset": key.dataset[:12],
        "k": key.k,
        "eta": key.eta,
        "procedure": key.procedure,
        "backend": key.backend,
        "variant": key.variant,
        "cliques": stored.record.num_cliques,
        "seconds": stored.record.seconds,
        "violation": "yes" if stored.violation is not None else "-",
    }


def render_rows(
    rows: List[Dict[str, object]], fmt: str, title: Optional[str] = None
) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True, default=str)
    if fmt == "csv":
        if not rows:
            return ""
        columns: List[str] = []
        for row in rows:
            for name in row:
                if name not in columns:
                    columns.append(name)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buffer.getvalue().rstrip("\n")
    from repro.bench.harness import format_table

    return format_table(rows, title=title)


def show_document(
    stored: StoredRun, with_cliques: bool = False
) -> Dict[str, object]:
    document: Dict[str, object] = {
        "digest": stored.digest,
        "key": stored.key.as_dict(),
        "record": {
            "label": stored.record.label,
            "seconds": stored.record.seconds,
            "num_cliques": stored.record.num_cliques,
            "stats": stored.record.stats,
            "extra": stored.record.extra,
        },
    }
    if stored.violation is not None:
        document["violation"] = stored.violation
    if stored.artifacts:
        document["artifacts"] = sorted(stored.artifacts)
    if with_cliques and stored.cliques is not None:
        document["cliques"] = [
            sorted((repr(m) for m in clique))
            for clique in stored.cliques
        ]
        document["cliques"].sort(key=lambda members: (len(members), members))
    return document


def render_show(
    stored: StoredRun, fmt: str, with_cliques: bool = False
) -> str:
    document = show_document(stored, with_cliques=with_cliques)
    if fmt == "json":
        return json.dumps(document, indent=2, sort_keys=True, default=str)
    rows = [
        {"field": name, "value": getattr(stored.key, name)}
        for name in _KEY_FIELDS
    ]
    record = document["record"]
    rows.append({"field": "label", "value": record["label"]})
    rows.append({"field": "seconds", "value": repr(record["seconds"])})
    rows.append({"field": "cliques", "value": record["num_cliques"]})
    for name in sorted(record["stats"]):
        rows.append(
            {"field": "stat_%s" % name, "value": record["stats"][name]}
        )
    if stored.violation is not None:
        rows.append(
            {
                "field": "violation",
                "value": "%s (%s)" % (
                    stored.violation.get("check", "?"),
                    stored.violation.get("name", "?"),
                ),
            }
        )
    for name in sorted(stored.artifacts):
        rows.append({"field": "artifact", "value": name})
    lines = [render_rows(rows, "table", title="run %s" % stored.digest)]
    if with_cliques and "cliques" in document:
        lines.extend(
            json.dumps(members) for members in document["cliques"]
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _cmd_run(args) -> int:
    from dataclasses import replace

    from repro.core.config import PMUC_PLUS_CONFIG
    from repro.datasets import load_dataset

    try:
        eta = parse_eta(args.eta)
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    graph = load_dataset(
        args.dataset, seed=args.seed, probability_model=args.probability_model
    )
    config = PMUC_PLUS_CONFIG
    if args.backend is not None:
        config = replace(config, backend=args.backend)
    if args.sanitize is not None:
        config = replace(config, sanitize=args.sanitize)
    store = RunStore(args.store)
    service = EnumerationService(store, config)
    if args.procedure == "peel":
        outcome = service.enumerate(
            graph, args.k, eta, label="run:%s" % args.dataset
        )
    else:
        outcome = service.query(graph, args.k, eta)
    print(
        "%s %s k=%d eta=%s procedure=%s: %s"
        % (
            "hit" if outcome.hit else "miss",
            outcome.digest[:12],
            args.k,
            outcome.key.eta,
            outcome.key.procedure,
            "served from store" if outcome.hit else "enumerated and stored",
        )
    )
    stored = store.get_by_digest(outcome.digest)
    if stored is None:
        print("error: stored entry unreadable", file=sys.stderr)
        return 1
    print(render_show(stored, args.format))
    return 0


def _resolve(store: RunStore, digest: str) -> Optional[StoredRun]:
    stored = store.get_by_digest(digest)
    if stored is None:
        print(
            "error: no unique readable run matches %r" % digest,
            file=sys.stderr,
        )
    return stored


def _cmd_query_list(args) -> int:
    store = RunStore(args.store)
    rows = [list_row(stored) for stored in store.list_runs()]
    print(render_rows(rows, args.format, title="stored runs"))
    return 0


def _cmd_query_show(args) -> int:
    store = RunStore(args.store)
    stored = _resolve(store, args.digest)
    if stored is None:
        return 2
    print(render_show(stored, args.format, with_cliques=args.cliques))
    return 0


def _cmd_query_diff(args) -> int:
    store = RunStore(args.store)
    left = _resolve(store, args.left)
    right = _resolve(store, args.right)
    if left is None or right is None:
        return 2
    rows: List[Dict[str, object]] = []
    for name in _KEY_FIELDS:
        a, b = getattr(left.key, name), getattr(right.key, name)
        rows.append(
            {
                "field": name,
                "a": a,
                "b": b,
                "same": "yes" if a == b else "NO",
            }
        )
    counters = sorted(
        set(left.record.stats) | set(right.record.stats)
    )
    for name in counters:
        a = left.record.stats.get(name)
        b = right.record.stats.get(name)
        rows.append(
            {
                "field": "stat_%s" % name,
                "a": a,
                "b": b,
                "same": "yes" if a == b else "NO",
            }
        )
    left_cliques = (
        None
        if left.cliques is None
        else set(map(frozenset, left.cliques))
    )
    right_cliques = (
        None
        if right.cliques is None
        else set(map(frozenset, right.cliques))
    )
    cliques_equal = (
        left_cliques is not None
        and right_cliques is not None
        and left_cliques == right_cliques
    )
    rows.append(
        {
            "field": "cliques",
            "a": left.record.num_cliques,
            "b": right.record.num_cliques,
            "same": "yes" if cliques_equal else "NO",
        }
    )
    print(
        render_rows(
            rows,
            args.format,
            title="diff %s vs %s" % (left.digest[:12], right.digest[:12]),
        )
    )
    return 0 if cliques_equal else 1


def _cmd_query_export(args) -> int:
    store = RunStore(args.store)
    stored = _resolve(store, args.digest)
    if stored is None:
        return 2
    if args.what == "record":
        body = json.dumps(
            show_document(stored), indent=2, sort_keys=True, default=str
        )
    else:
        if stored.cliques is None:
            print(
                "error: run %s stores no clique set" % stored.digest[:12],
                file=sys.stderr,
            )
            return 2
        members_rows = sorted(
            (
                sorted((repr(m) for m in clique))
                for clique in stored.cliques
            ),
            key=lambda members: (len(members), members),
        )
        if args.format == "csv":
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(["size", "members"])
            for members in members_rows:
                writer.writerow([len(members), ";".join(members)])
            body = buffer.getvalue().rstrip("\n")
        elif args.format == "json":
            body = json.dumps(members_rows, indent=2, sort_keys=True)
        else:  # jsonl
            body = "\n".join(json.dumps(m) for m in members_rows)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(body + "\n")
        print("wrote %s" % args.out)
    else:
        print(body)
    return 0


def _cmd_serve(args) -> int:
    store = RunStore(args.store)
    loop = ServeLoop(EnumerationService(store))
    if args.socket is not None:
        host, _, port = args.socket.rpartition(":")
        if not host or not port.isdigit():
            print(
                "error: --socket expects HOST:PORT, got %r" % args.socket,
                file=sys.stderr,
            )
            return 2
        return _serve_socket(loop, host, int(port))
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        sys.stdout.write(loop.handle_line(line) + "\n")
        sys.stdout.flush()
    return 0


def _serve_socket(loop: ServeLoop, host: str, port: int) -> int:
    import socketserver

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for raw in self.rfile:
                line = raw.decode("utf-8", "replace").strip()
                if not line:
                    continue
                self.wfile.write((loop.handle_line(line) + "\n").encode())
                self.wfile.flush()

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as server:
        bound = server.server_address
        print("serving on %s:%d" % (bound[0], bound[1]), flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description=(
            "Content-addressed enumeration store: run, query and serve "
            "maximal (k, η)-clique enumerations (see docs/architecture.md)."
        ),
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE_DIR,
        metavar="DIR",
        help="store directory (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="enumerate through the store")
    run.add_argument("--dataset", required=True, help="dataset name")
    run.add_argument("--seed", type=int, default=0, help="dataset seed")
    run.add_argument(
        "--probability-model",
        default="exponential",
        help="dataset probability model (default: %(default)s)",
    )
    run.add_argument("--k", type=int, required=True, help="minimum clique size")
    run.add_argument(
        "--eta", required=True,
        help="probability threshold (0.1 or an exact fraction like 1/10)",
    )
    run.add_argument(
        "--backend", choices=("dict", "kernel"), default=None,
        help="override the enumeration backend",
    )
    run.add_argument(
        "--sanitize", choices=("off", "light", "full"), default=None,
        help="override the sanitizer level",
    )
    run.add_argument(
        "--procedure", choices=("peel", "slice"), default="peel",
        help="direct reduction or session decomposition slice",
    )
    run.add_argument(
        "--format", choices=("table", "json"), default="table",
    )
    run.set_defaults(func=_cmd_run)

    query = sub.add_parser("query", help="inspect stored runs")
    query_sub = query.add_subparsers(dest="query_command", required=True)

    q_list = query_sub.add_parser("list", help="list stored runs")
    q_list.add_argument(
        "--format", choices=("table", "csv", "json"), default="table"
    )
    q_list.set_defaults(func=_cmd_query_list)

    q_show = query_sub.add_parser("show", help="show one stored run")
    q_show.add_argument("digest", help="digest or unique prefix")
    q_show.add_argument(
        "--format", choices=("table", "json"), default="table"
    )
    q_show.add_argument(
        "--cliques", action="store_true", help="include the clique set"
    )
    q_show.set_defaults(func=_cmd_query_show)

    q_diff = query_sub.add_parser("diff", help="compare two stored runs")
    q_diff.add_argument("left", help="digest or unique prefix")
    q_diff.add_argument("right", help="digest or unique prefix")
    q_diff.add_argument(
        "--format", choices=("table", "csv", "json"), default="table"
    )
    q_diff.set_defaults(func=_cmd_query_diff)

    q_export = query_sub.add_parser(
        "export", help="export a stored clique set or record"
    )
    q_export.add_argument("digest", help="digest or unique prefix")
    q_export.add_argument(
        "--what", choices=("cliques", "record"), default="cliques"
    )
    q_export.add_argument(
        "--format", choices=("jsonl", "json", "csv"), default="jsonl"
    )
    q_export.add_argument("--out", default=None, metavar="PATH")
    q_export.set_defaults(func=_cmd_query_export)

    serve = sub.add_parser(
        "serve", help="answer JSON-lines enumeration requests"
    )
    serve.add_argument(
        "--socket", default=None, metavar="HOST:PORT",
        help="serve over TCP instead of stdin/stdout",
    )
    serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (``| head``).  Point the rest of
        # stdout at devnull, so the flush at interpreter exit cannot
        # raise again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
