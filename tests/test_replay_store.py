"""The checkpoint store: an append-only JSONL file (format 2).

Recording appends and fsyncs one line per checkpoint, so its cost is
linear in the checkpoints taken; loading goes through the shared
torn-tail reader in :mod:`repro.logio`, verifies every digest, and
turns every malformed header or entry into a typed ``ReplayError`` —
which ``repro checkpoint`` reports as exit 2 with one stderr line.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ReplayError
from repro.replay import Checkpoint, CheckpointStore
from repro.replay.checkpoint import STORE_FORMAT, STORE_KIND

HEADER = {"kind": STORE_KIND, "format": STORE_FORMAT}


def _checkpoint(index: int) -> Checkpoint:
    return Checkpoint(index=index, at_cycles=1000.0 * (index + 1),
                      steps=10 * index, decision_index=5 * index,
                      rng_state=[3, list(range(8)), None],
                      master_seq={"main": index},
                      fingerprint={"cycles": 1000.0 * (index + 1)})


def _write_lines(path, records, tail: str = "") -> str:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        handle.write(tail)
    return str(path)


def _lines(path) -> list[str]:
    with open(path) as handle:
        return handle.read().splitlines()


class TestAppendOnlyStore:
    def test_each_add_serializes_one_checkpoint(self, tmp_path,
                                                monkeypatch):
        calls = []
        to_dict = Checkpoint.to_dict

        def counting(self):
            calls.append(self.index)
            return to_dict(self)

        monkeypatch.setattr(Checkpoint, "to_dict", counting)
        path = str(tmp_path / "run.ckpt.jsonl")
        store = CheckpointStore(path=path)
        count = 25
        for index in range(count):
            store.add(_checkpoint(index))
            assert calls == list(range(index + 1))
            assert len(_lines(path)) == index + 2
        monkeypatch.setattr(Checkpoint, "to_dict", to_dict)
        loaded = CheckpointStore.load(path)
        assert [c.to_dict() for c in loaded.checkpoints] == \
            [_checkpoint(i).to_dict() for i in range(count)]

    def test_header_line_then_one_line_per_checkpoint(self, tmp_path):
        path = str(tmp_path / "run.ckpt.jsonl")
        store = CheckpointStore(path=path)
        for index in range(3):
            store.add(_checkpoint(index))
        lines = _lines(path)
        assert json.loads(lines[0]) == HEADER
        assert [json.loads(line)["index"] for line in lines[1:]] == \
            [0, 1, 2]

    def test_first_add_replaces_a_stale_file(self, tmp_path):
        path = _write_lines(tmp_path / "stale.ckpt.jsonl",
                            [HEADER] + [_checkpoint(i).to_dict()
                                        for i in range(4)])
        store = CheckpointStore(path=path)
        store.add(_checkpoint(0))
        assert len(CheckpointStore.load(path)) == 1

    def test_persist_rewrites_a_trimmed_store(self, tmp_path):
        path = str(tmp_path / "run.ckpt.jsonl")
        store = CheckpointStore(path=path)
        for index in range(5):
            store.add(_checkpoint(index))
        loaded = CheckpointStore.load(path)
        loaded.checkpoints = loaded.checkpoints[:2]
        loaded.persist()
        loaded.add(_checkpoint(2))
        again = CheckpointStore.load(path)
        assert [c.index for c in again.checkpoints] == [0, 1, 2]
        assert not os.path.exists(path + ".tmp")

    def test_torn_final_line_is_dropped(self, tmp_path):
        entries = [_checkpoint(i).to_dict() for i in range(3)]
        torn = json.dumps(_checkpoint(3).to_dict())[:40]
        path = _write_lines(tmp_path / "torn.ckpt.jsonl",
                            [HEADER] + entries, tail=torn)
        store = CheckpointStore.load(path)
        assert [c.index for c in store.checkpoints] == [0, 1, 2]
        # Appending after a torn tail must not glue onto it.
        store.add(_checkpoint(3))
        assert [c.index for c in CheckpointStore.load(path).checkpoints] \
            == [0, 1, 2, 3]


def _entry(**changes) -> dict:
    entry = _checkpoint(0).to_dict()
    entry.update(changes)
    return entry


#: (case id, lines written to the store file) -> ReplayError on load.
MALFORMED = [
    ("header-without-format", [{"kind": STORE_KIND, "checkpoints": 5}]),
    ("format-1", [{"kind": STORE_KIND, "format": 1, "checkpoints": []}]),
    ("entry-not-an-object", [HEADER, [1, 2, 3]]),
    ("master-seq-string", [HEADER, _entry(master_seq="ab")]),
    ("fingerprint-list", [HEADER, _entry(fingerprint=[1, 2])]),
    ("index-string", [HEADER, _entry(index="0")]),
    ("missing-at-cycles", [HEADER, {"index": 0}]),
    ("digest-mismatch", [HEADER, _entry(digest="sha256:00")]),
    ("duplicate-index", [HEADER, _checkpoint(0).to_dict(),
                         _checkpoint(0).to_dict()]),
]


class TestHostileStores:
    @pytest.mark.parametrize("lines", [case[1] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_store_is_a_replay_error(self, tmp_path, lines):
        path = _write_lines(tmp_path / "bad.ckpt.jsonl", lines)
        with pytest.raises(ReplayError):
            CheckpointStore.load(path)

    def test_format_1_is_named(self, tmp_path):
        path = _write_lines(tmp_path / "old.ckpt.json",
                            [{"kind": STORE_KIND, "format": 1,
                              "checkpoints": []}])
        with pytest.raises(ReplayError, match="format 1"):
            CheckpointStore.load(path)

    def test_interior_corruption_is_a_replay_error(self, tmp_path):
        path = _write_lines(tmp_path / "holed.ckpt.jsonl",
                            [HEADER, _checkpoint(0).to_dict()],
                            tail="{not json\n"
                            + json.dumps(_checkpoint(1).to_dict()) + "\n")
        with pytest.raises(ReplayError, match="corrupt|not valid JSON"):
            CheckpointStore.load(path)

    @pytest.mark.parametrize("lines", [case[1] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_checkpoint_cli_exits_two_with_one_line(self, tmp_path,
                                                    capsys, lines):
        path = _write_lines(tmp_path / "bad.ckpt.jsonl", lines)
        assert main(["checkpoint", path]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro checkpoint: ")
        assert "Traceback" not in captured.err
