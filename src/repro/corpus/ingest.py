"""Bulk corpus ingestion: many schemata into a repository, fast.

The paper's repository is fed by harvest jobs, not by analysts clicking
"register" -- an enterprise onboarding drops hundreds to thousands of
schemata at once.  Registering them one :meth:`MetadataRepository.register`
call at a time pays two write transactions per schema (payload + clock,
fingerprint drop) and then a third when the corpus index derives the
fingerprint lazily.  This module is the batched path:

1. :func:`iter_schema_payloads` streams ``(name, payload)`` pairs from a
   directory of schema JSON files or a JSONL file (one schema per line);
2. every payload is decoded, and its fingerprint derived, in-process or
   fanned out across a process pool -- the
   :class:`~repro.batch.runner.BatchMatchRunner` ``workers`` convention
   (1 = in-process, > 1 = a pool of that width).  A record that does not decode
   (or is not JSON, or names no schema) is reported in
   :attr:`IngestReport.rejected` and never stored, so one malformed record
   neither aborts the ingest nor reaches the repository;
3. :meth:`MetadataRepository.bulk_register_schemas` lands each chunk of
   payloads *and* their fingerprints in ONE backend transaction (one
   ``BEGIN IMMEDIATE`` per chunk on SQLite, the sequence-block style of
   ``store_matches``), bumping the generation once per payload so corpus
   staleness semantics are unchanged.

The result is a corpus that is registered AND index-warm: the first
refresh after an ingest reloads every fingerprint instead of deriving
them on the query path.  ``repro ingest`` is the CLI face; bench E21
holds the bulk path to >=5x the loop-registration rate at 10k schemata.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from repro.batch.runner import check_workers
from repro.corpus.index import _UNREADABLE_PAYLOAD, _schema_fingerprint, payload_hash
from repro.repository.store import MetadataRepository
from repro.schema.schema import Schema
from repro.schema.serialize import schema_from_dict, schema_to_dict

__all__ = [
    "IngestReport",
    "RejectedRecord",
    "bulk_ingest",
    "iter_schema_payloads",
]

class RejectedRecord(NamedTuple):
    """One input record an ingest refused to store, and why."""

    source: str           # ``path:line``, the file, or ``item N`` in memory
    name: str | None      # the schema name, when the record carried one
    reason: str


class _SourcedPayload(tuple):
    """A ``(name, payload)`` pair that remembers where it was read."""

    def __new__(cls, name: str, payload: dict, source: str):
        item = super().__new__(cls, (name, payload))
        item.source = source
        return item


@dataclass(frozen=True)
class IngestReport:
    """What one :func:`bulk_ingest` run did, and how fast."""

    n_read: int                  # items consumed from the input
    n_written: int               # payloads actually written (changed/new)
    n_skipped: int               # identical payloads skipped by the store
    n_fingerprinted: int         # fingerprints precomputed and stored
    fingerprint_seconds: float   # spent decoding and deriving fingerprints
    register_seconds: float      # spent inside bulk_register_schemas
    elapsed_seconds: float       # end-to-end wall time
    schemata_per_second: float   # n_read / elapsed_seconds
    rejected: tuple[RejectedRecord, ...] = ()  # records not stored

    def to_dict(self) -> dict:
        return {
            "n_read": self.n_read,
            "n_written": self.n_written,
            "n_skipped": self.n_skipped,
            "n_fingerprinted": self.n_fingerprinted,
            "fingerprint_seconds": self.fingerprint_seconds,
            "register_seconds": self.register_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "schemata_per_second": self.schemata_per_second,
            "rejected": [record._asdict() for record in self.rejected],
        }


def iter_schema_payloads(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Stream ``(name, payload)`` pairs from a directory or JSONL file.

    * a **directory**: every ``*.json`` file inside (sorted, not
      recursive) is read as one serialised schema payload;
    * a **JSONL file**: each non-blank line is either a bare schema
      payload or a ``{"name": ..., "schema": {...}}`` wrapper (the
      wrapper wins when a harvest job registers under a curated name).

    The payload's own ``name`` field is used when no wrapper overrides
    it.  A record that is not a JSON object or names no schema does not
    end the stream: it is yielded as a :class:`RejectedRecord` (source
    ``path:line`` or the file), which :func:`bulk_ingest` reports.
    Payloads are otherwise passed through undecoded; :func:`bulk_ingest`
    decodes them.
    """
    path = Path(path)
    if path.is_dir():
        for file in sorted(path.glob("*.json")):
            yield _named_payload(file.read_text(encoding="utf-8"), str(file))
        return
    if not path.is_file():
        raise FileNotFoundError(f"no schema directory or JSONL file at {path}")
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield _named_payload(line, f"{path}:{line_number}")


def _named_payload(text: str, source: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return RejectedRecord(source, None, f"not JSON: {exc}")
    name = None
    if isinstance(payload, dict) and "schema" in payload and "elements" not in payload:
        name, payload = payload.get("name"), payload["schema"]
    if not isinstance(payload, dict):
        return RejectedRecord(source, name, "schema payload is not a JSON object")
    name = name or payload.get("name")
    if not name:
        return RejectedRecord(source, None, "schema payload has no name")
    return _SourcedPayload(str(name), payload, source)


def _payload_of(item, position: int) -> tuple[str, dict, str]:
    """Normalise one ingest item to ``(name, payload_dict, source)``."""
    if isinstance(item, Schema):
        return item.name, schema_to_dict(item), f"item {position}"
    name, payload = item
    if isinstance(payload, Schema):
        payload = schema_to_dict(payload)
    return name, payload, getattr(item, "source", f"item {position}")


def _vet(payload: dict, fingerprint: bool) -> tuple[dict | None, str | None]:
    """Decode one payload: ``(fingerprint or None, rejection reason or None)``.

    Catches exactly what the corpus refresh quarantines, so a payload the
    ingest accepts is one every later refresh can read.
    """
    try:
        schema = schema_from_dict(payload)
    except _UNREADABLE_PAYLOAD as exc:
        return None, f"{type(exc).__name__}: {exc}"
    if not fingerprint:
        return None, None
    return _schema_fingerprint(schema, payload_hash(payload)), None


def bulk_ingest(
    repository: MetadataRepository,
    items: Iterable,
    chunk_size: int = 256,
    workers: int = 1,
    fingerprint: bool = True,
) -> IngestReport:
    """Ingest many schemata through the batched registration path.

    ``items`` may yield :class:`Schema` objects, ``(name, payload)``
    pairs, or ``(name, Schema)`` pairs (mixtures are fine), and the
    :class:`RejectedRecord` items :func:`iter_schema_payloads` yields;
    duplicates of a name collapse to the last occurrence, matching
    re-registration semantics.  Every payload is decoded -- on a process
    pool of ``workers`` processes when ``workers > 1`` -- before anything
    is written: one that does not decode is
    not stored and lands in :attr:`IngestReport.rejected`, while every
    valid record is still written.  With ``fingerprint=True`` (the
    default) term-bag fingerprints are derived in the same pass and stored
    in the same transactions as the payloads, so the corpus index's next
    refresh is a pure reload.  ``fingerprint=False`` defers derivation to
    the first refresh (rarely what an ingest job wants, but the knob the
    E21 bench uses to time registration and fingerprinting separately).
    """
    check_workers(workers)
    started = time.perf_counter()
    payloads: dict[str, dict] = {}
    sources: dict[str, str] = {}
    rejected: list[RejectedRecord] = []
    n_read = 0
    for item in items:
        n_read += 1
        if isinstance(item, RejectedRecord):
            rejected.append(item)
            continue
        name, payload, source = _payload_of(item, n_read)
        payloads[name] = payload
        sources[name] = source

    fp_started = time.perf_counter()
    names = list(payloads)
    vet = partial(_vet, fingerprint=fingerprint)
    if workers == 1 or not names:
        vetted = [vet(payloads[name]) for name in names]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            vetted = list(
                pool.map(vet, [payloads[name] for name in names], chunksize=16)
            )
    fingerprints: dict[str, dict] = {}
    for name, (derived, reason) in zip(names, vetted):
        if reason is not None:
            rejected.append(RejectedRecord(sources[name], name, reason))
            del payloads[name]
        elif derived is not None:
            fingerprints[name] = derived
    fingerprint_seconds = time.perf_counter() - fp_started

    register_started = time.perf_counter()
    n_written = repository.bulk_register_schemas(
        payloads.items(), chunk_size=chunk_size, fingerprints=fingerprints
    )
    register_seconds = time.perf_counter() - register_started
    elapsed = time.perf_counter() - started
    return IngestReport(
        n_read=n_read,
        n_written=n_written,
        n_skipped=len(payloads) - n_written,
        n_fingerprinted=len(fingerprints),
        fingerprint_seconds=fingerprint_seconds,
        register_seconds=register_seconds,
        elapsed_seconds=elapsed,
        schemata_per_second=(n_read / elapsed) if elapsed > 0 else 0.0,
        rejected=tuple(rejected),
    )
