"""The content-addressed, crash-safe run store.

Layout (two-level fan-out keeps directory listings short, like the
analysis cache)::

    <root>/runs/<digest[:2]>/<digest>/
        MANIFEST.json       # {"format": 2, "files": {name: sha256}}
        key.json            # the RunKey fields
        record.json         # the RunRecord (label/seconds/stats/extra,
                            # extra["phases"]: the run's phase seconds)
        cliques.jsonl       # vertex table, then one id row per clique
        violation.json      # only for sanitized runs that failed
        artifacts/<name>    # registered files (flight logs, traces)
    <root>/reductions/<digest[:2]>/<digest>/
        MANIFEST.json
        core.jsonl          # vertex table, then its shells in table order
        triangle.jsonl      # vertex table, then one [i, j, shell] per edge

Each ``.jsonl`` line 1 is the vertex table in ``repr`` order; later
rows name vertices by table id.  Ids follow ``repr`` rank, so clique
rows in (size, ids) order keep the canonical order of
``EnumerationResult.as_sorted_sets``: equal clique sets, equal bytes.

**Crash safety** — every entry is staged in a temporary directory and
published with one atomic ``os.rename``; a crashed writer leaves only
an unreachable temp dir, never a half-entry.  First write wins: if the
destination exists the stage is discarded, which is correct because
entries are content-addressed (same key ⇒ byte-identical payload).

**Corruption degrades to a miss** — every read re-hashes each file
against the manifest; a flipped byte, a truncated tail (the flight
recorder's tolerance pattern applied to storage: damaged tails must
never poison a replay), a missing file, content that does not decode
(an out-of-range table id included) or an entry of another store
format makes ``get`` return None.  A run store must never fail an
enumeration — it can only fail to shortcut one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.stats import CliqueList, EnumerationResult, SearchStats
from repro.store.key import ReductionKey, RunKey
from repro.store.records import RunRecord

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = ".repro-store"

_STORE_FORMAT = 2

_MANIFEST = "MANIFEST.json"


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _vertex_table(vertices) -> Tuple[list, Dict[object, int]]:
    """The ``repr``-ordered vertex table and each vertex's id in it."""
    table = sorted(vertices, key=repr)
    return table, {vertex: i for i, vertex in enumerate(table)}


def _table_lines(table: list, rows: List[List[int]]) -> bytes:
    """The table line, then one line per row.  Rows are flat int lists,
    so ``"], ["`` only ever separates two of them: one ``json.dumps``
    plus a replace costs half of one ``json.dumps`` per row."""
    body = json.dumps(rows)[1:-1].replace("], [", "]\n[")
    head = json.dumps(table, default=str, sort_keys=True)
    return (head + "\n" + (body + "\n" if body else "")).encode()


#: Every byte a rows body may hold.  Rows are flat arrays of
#: non-negative integers, so anything else is damage: a ``-`` (a
#: negative id indexes the table from its end), JSON ``true``
#: (``table[True]`` is ``table[1]``), a float, a string, an object.
_ROW_BYTES = b"0123456789, []\n"


def _parse_table_lines(blob: bytes) -> Tuple[list, list]:
    """Inverse of :func:`_table_lines`; raises ValueError on damage."""
    head, _, body = blob.partition(b"\n")
    if body.translate(None, _ROW_BYTES):
        raise ValueError("table rows hold more than non-negative integers")
    table = [_freeze(vertex) for vertex in json.loads(head.decode())]
    rows = json.loads(b"[" + body.rstrip(b"\n").replace(b"\n", b",") + b"]")
    return table, rows


def _encode_cliques(cliques) -> bytes:
    # One pass builds each clique once: a row-backed CliqueList
    # builds a fresh set on every read, and the cliques are read twice.
    cliques = list(cliques)
    table, index = _vertex_table(set().union(*cliques))
    rows = [sorted(map(index.__getitem__, clique)) for clique in cliques]
    # Two stable sorts: ids, then size — the (size, ids) order.
    rows.sort()
    rows.sort(key=len)
    return _table_lines(table, rows)


def _decode_cliques(blob: bytes) -> CliqueList:
    """The stored cliques as the parsed id rows over the vertex table.

    Builds no clique set; raises ValueError on damage.  Past the byte
    check of :func:`_parse_table_lines`, C-level passes check every
    row: a row that is not a flat list cannot join the id set, an
    empty row is falsy, and the largest id must index the table.
    """
    table, rows = _parse_table_lines(blob)
    try:
        ids = set().union(*rows)
    except TypeError as error:
        raise ValueError("table rows are not flat id rows") from error
    if not all(rows):
        raise ValueError("empty table row")
    if ids and max(ids) >= len(table):
        raise ValueError("table id outside the table")
    return CliqueList.of_rows(table, rows)


def _freeze(vertex):
    """JSON round-trips tuples to lists; restore hashability."""
    if isinstance(vertex, list):
        return tuple(_freeze(item) for item in vertex)
    return vertex


@dataclass
class StoredRun:
    """One materialized store entry."""

    digest: str
    key: RunKey
    record: RunRecord
    cliques: Optional[CliqueList] = None
    violation: Optional[Dict[str, object]] = None
    artifacts: Dict[str, str] = field(default_factory=dict)

    def result(self):
        """Rebuild an :class:`~repro.core.stats.EnumerationResult`.

        The counters are the *producing run's* counters, replayed
        verbatim — a cache hit reports exactly the effort the stored
        run spent, not zero and not a recomputation.  The result
        adopts this entry's clique list, still id rows: a hit builds a
        clique's set only when the caller reads that clique.
        """
        result = EnumerationResult()
        if self.cliques is not None:
            result.cliques = self.cliques
        result.phases = dict(self.record.extra.get("phases") or {})
        known = set(SearchStats().as_dict())
        result.stats = SearchStats(
            **{
                name: value
                for name, value in self.record.stats.items()
                if name in known
            }
        )
        return result


class RunStore:
    """Content-addressed persistence for enumeration runs."""

    def __init__(self, root: str = DEFAULT_STORE_DIR):
        self.root = root
        self.hits = 0
        self.misses = 0

    # -- layout --------------------------------------------------------
    def _entry_dir(self, kind: str, digest: str) -> str:
        return os.path.join(self.root, kind, digest[:2], digest)

    def run_dir(self, digest: str) -> str:
        return self._entry_dir("runs", digest)

    # -- atomic publication --------------------------------------------
    def _publish(self, kind: str, digest: str,
                 files: Dict[str, bytes]) -> str:
        """Stage ``files`` plus their manifest, then rename into place."""
        final = self._entry_dir(kind, digest)
        parent = os.path.dirname(final)
        os.makedirs(parent, exist_ok=True)
        stage = tempfile.mkdtemp(dir=parent, prefix="stage-")
        try:
            manifest = {"format": _STORE_FORMAT, "files": {}}
            for name in sorted(files):
                blob = files[name]
                path = os.path.join(stage, name)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "wb") as handle:
                    handle.write(blob)
                manifest["files"][name] = _sha256(blob)
            with open(
                os.path.join(stage, _MANIFEST), "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            if os.path.exists(final):
                if self._verified_read(kind, digest) is not None:
                    # Content-addressed: the existing entry is
                    # equivalent (same key ⇒ byte-identical payload).
                    shutil.rmtree(stage, ignore_errors=True)
                    return final
                # A damaged entry would otherwise pin its digest as a
                # permanent miss: evict it and let the fresh stage win.
                shutil.rmtree(final, ignore_errors=True)
            try:
                os.rename(stage, final)
            except OSError:
                # Lost a publication race; the winner's entry stands.
                shutil.rmtree(stage, ignore_errors=True)
            return final
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise

    def _verified_read(
        self, kind: str, digest: str
    ) -> Optional[Dict[str, bytes]]:
        """Every file of an entry, re-hashed against its manifest.

        Returns None — a miss — on any damage: unreadable manifest,
        missing file, flipped byte, truncated tail.
        """
        entry = self._entry_dir(kind, digest)
        try:
            with open(
                os.path.join(entry, _MANIFEST), encoding="utf-8"
            ) as handle:
                manifest = json.load(handle)
            if manifest.get("format") != _STORE_FORMAT:
                raise ValueError("stale store format")
            files: Dict[str, bytes] = {}
            for name in sorted(manifest["files"]):
                with open(os.path.join(entry, name), "rb") as handle:
                    blob = handle.read()
                if _sha256(blob) != manifest["files"][name]:
                    raise ValueError("content hash mismatch: %s" % name)
                files[name] = blob
            return files
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- runs ----------------------------------------------------------
    def put_run(
        self,
        key: RunKey,
        record: RunRecord,
        cliques=None,
        violation: Optional[Dict[str, object]] = None,
    ) -> str:
        """Persist one run; returns its digest."""
        digest = key.digest()
        files: Dict[str, bytes] = {
            "key.json": (
                json.dumps(key.as_dict(), indent=2, sort_keys=True) + "\n"
            ).encode(),
            "record.json": (
                json.dumps(
                    {
                        "label": record.label,
                        "seconds": record.seconds,
                        "num_cliques": record.num_cliques,
                        "stats": record.stats,
                        "extra": record.extra,
                    },
                    default=str,
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            ).encode(),
        }
        if cliques is not None:
            files["cliques.jsonl"] = _encode_cliques(cliques)
        if violation is not None:
            files["violation.json"] = (
                json.dumps(violation, default=str, indent=2, sort_keys=True)
                + "\n"
            ).encode()
        self._publish("runs", digest, files)
        return digest

    def get_run(self, key: RunKey) -> Optional[StoredRun]:
        """The stored run for ``key``, or None (miss/corrupt)."""
        stored = self._load_run(key.digest(), with_cliques=True)
        if stored is None:
            self.misses += 1
            return None
        if stored.key != key:
            # A digest collision or tampered key file: treat as damage.
            self.misses += 1
            return None
        self.hits += 1
        return stored

    def has(self, key: RunKey) -> bool:
        return self._verified_read("runs", key.digest()) is not None

    def get_by_digest(
        self, digest: str, with_cliques: bool = True
    ) -> Optional[StoredRun]:
        """Lookup by digest or unique digest prefix (CLI surface)."""
        if len(digest) < 64:
            matches = [
                d for d in self._iter_digests("runs")
                if d.startswith(digest)
            ]
            if len(matches) != 1:
                return None
            digest = matches[0]
        return self._load_run(digest, with_cliques=with_cliques)

    def _load_run(
        self, digest: str, with_cliques: bool
    ) -> Optional[StoredRun]:
        files = self._verified_read("runs", digest)
        if files is None:
            return None
        try:
            key = RunKey.from_dict(json.loads(files["key.json"]))
            raw = json.loads(files["record.json"])
            record = RunRecord(
                label=raw["label"],
                seconds=raw["seconds"],
                num_cliques=raw["num_cliques"],
                stats=dict(raw.get("stats", {})),
                extra=dict(raw.get("extra", {})),
            )
            cliques = None
            if with_cliques and "cliques.jsonl" in files:
                cliques = _decode_cliques(files["cliques.jsonl"])
            violation = None
            if "violation.json" in files:
                violation = json.loads(files["violation.json"])
        except (ValueError, KeyError, TypeError, IndexError):
            return None
        artifacts = {
            name[len("artifacts/"):]: os.path.join(
                self.run_dir(digest), name
            )
            for name in files
            if name.startswith("artifacts/")
        }
        return StoredRun(
            digest=digest,
            key=key,
            record=record,
            cliques=cliques,
            violation=violation,
            artifacts=artifacts,
        )

    def _iter_digests(self, kind: str) -> Iterator[str]:
        base = os.path.join(self.root, kind)
        if not os.path.isdir(base):
            return
        for fan in sorted(os.listdir(base)):
            fan_dir = os.path.join(base, fan)
            if not os.path.isdir(fan_dir):
                continue
            for digest in sorted(os.listdir(fan_dir)):
                if len(digest) == 64:
                    yield digest

    def list_runs(self) -> List[StoredRun]:
        """Every readable run entry (metadata only, cliques skipped)."""
        runs = []
        for digest in self._iter_digests("runs"):
            stored = self._load_run(digest, with_cliques=False)
            if stored is not None:
                runs.append(stored)
        return runs

    # -- artifacts -----------------------------------------------------
    def register_artifact(
        self, digest: str, name: str, source_path: str
    ) -> Optional[str]:
        """Copy ``source_path`` under the run and extend its manifest.

        Returns the stored path, or None when the run entry does not
        exist or the artifact cannot be read (registration is best
        effort — an artifact must never fail the run that produced it).
        """
        entry = self.run_dir(digest)
        manifest_path = os.path.join(entry, _MANIFEST)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            with open(source_path, "rb") as handle:
                blob = handle.read()
            rel = "artifacts/" + os.path.basename(name)
            target = os.path.join(entry, rel)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(target), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, target)
            manifest["files"][rel] = _sha256(blob)
            fd, tmp = tempfile.mkstemp(dir=entry, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, manifest_path)
            return target
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- shared reductions ---------------------------------------------
    def put_reduction(
        self,
        key: ReductionKey,
        core_shell: Dict[object, int],
        triangle_shell: Dict[Tuple[object, object], int],
    ) -> str:
        """Persist one (core, triangle) decomposition pair."""
        digest = key.digest()
        core_table, _ = _vertex_table(core_shell)
        core_rows = [[core_shell[v] for v in core_table]]
        table, index = _vertex_table(set().union(*triangle_shell))
        triangle_rows = sorted(
            [index[u], index[v], shell]
            for (u, v), shell in triangle_shell.items()
        )
        files = {
            "reduction_key.json": (
                json.dumps(key.as_dict(), indent=2, sort_keys=True) + "\n"
            ).encode(),
            "core.jsonl": _table_lines(core_table, core_rows),
            "triangle.jsonl": _table_lines(table, triangle_rows),
        }
        self._publish("reductions", digest, files)
        return digest

    def get_reduction(
        self, key: ReductionKey
    ) -> Optional[Tuple[Dict[object, int],
                        Dict[Tuple[object, object], int]]]:
        """The stored decompositions for ``key``, or None."""
        files = self._verified_read("reductions", key.digest())
        if files is None:
            self.misses += 1
            return None
        try:
            core_table, (shells,) = _parse_table_lines(files["core.jsonl"])
            if len(shells) != len(core_table):
                raise ValueError("core shells do not match their table")
            core_shell = dict(zip(core_table, shells))
            table, rows = _parse_table_lines(files["triangle.jsonl"])
            triangle_shell = {
                (table[i], table[j]): shell for i, j, shell in rows
            }
        except (ValueError, KeyError, TypeError, IndexError):
            self.misses += 1
            return None
        self.hits += 1
        return core_shell, triangle_shell
