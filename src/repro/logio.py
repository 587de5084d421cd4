"""Shared JSON-lines I/O with torn-tail tolerance.

Three artifacts persist append-only JSONL and must survive the same
failure: a crash mid-``write`` leaves a *torn tail* — a final line that
is a prefix of a record (or a line with no trailing newline at all).
The serve registry journal (:mod:`repro.serve.registry`), the replay
:class:`~repro.replay.log.DecisionLog` and the replay
:class:`~repro.replay.checkpoint.CheckpointStore` all recover from such
files, so the truncated-line handling lives here, once.

Semantics
---------
:func:`read_jsonl` parses every line of ``path``:

* A final line that fails to decode — or decodes but was never
  newline-terminated — is the torn tail: it is dropped (never trusted)
  and flagged via :attr:`JsonlPage.torn_tail`.
* An *interior* line that fails to decode is corruption, not a torn
  write.  ``on_bad="skip"`` (journal semantics: one bad entry must not
  take down recovery) counts and skips it; ``on_bad="error"`` (decision
  log and checkpoint store semantics: a file with a hole cannot be
  trusted) raises
  :class:`JsonlCorruption` naming the line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ReproError


class JsonlCorruption(ReproError):
    """An interior JSONL line failed to decode under ``on_bad="error"``."""


@dataclass
class JsonlPage:
    """The readable prefix of a JSONL file."""

    records: list = field(default_factory=list)
    #: Interior undecodable lines skipped (``on_bad="skip"`` only).
    skipped: int = 0
    #: True when the final line was dropped as a torn (partial) write.
    torn_tail: bool = False


def read_jsonl(path: str, on_bad: str = "skip") -> JsonlPage:
    """Read ``path`` tolerating a torn final record; see module docs."""
    if on_bad not in ("skip", "error"):
        raise ValueError(f"unknown on_bad mode {on_bad!r}")
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read JSONL file {path!r}: "
                         f"{exc.strerror or exc}") from exc
    page = JsonlPage()
    if not text:
        return page
    complete = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        is_tail = index == last
        try:
            record = json.loads(line)
        except ValueError:
            if is_tail:
                # Torn write from a crash: drop it, flag it.
                page.torn_tail = True
                continue
            if on_bad == "error":
                raise JsonlCorruption(
                    f"{path}: line {index + 1} is not valid JSON "
                    "(interior corruption, not a torn tail)") from None
            page.skipped += 1
            continue
        if is_tail and not complete:
            # Decodable but never newline-terminated: still a partial
            # write (the full record may have had more bytes).
            page.torn_tail = True
            continue
        page.records.append(record)
    return page


def append_jsonl(handle, record) -> None:
    """Write one record as a canonical JSONL line to an open handle."""
    handle.write(json.dumps(record, sort_keys=True,
                            separators=(",", ":")))
    handle.write("\n")
