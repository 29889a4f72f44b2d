"""Durable run store: append-only JSONL of round records plus a plan manifest.

Layout of one run directory::

    <run_dir>/
      manifest.json   # serialized plan, plan hash, template digests
      rounds.jsonl    # one RoundRecord per line, append-only
      rounds.jsonl.torn  # only after a crash mid-append: the torn final
                         # lines that resume set aside

Records are immutable named tuples; one shared compact JSON encoder defines each
one's line of its fields in declaration order, which `RoundRecord.to_line` writes
from a per-trajectory template where it can. Records carry their full trajectory
identity (condition index, repetition, block, round) so concurrent trajectories can
interleave safely. A read decodes each label head (a line up to ``,"round_index":``)
once and shares it among its records; another spelling takes
`RoundRecord.from_line`'s full decode. A malformed or non-UTF-8 line raises
IntegrityError naming it; `group_trajectories` refuses, in line order, the first
record whose JSON types (money is an integer) or labels and round index are not
the plan's, and groups the rest by identity. A round's values are checked by the
runner's walk (`runner.replay`). A `Trajectory` is its scenario and its records,
whose first labels it. A run's outcome holds the rounds it read and those it
appended, in the blocks the runner walked, so the runner never reads the file back.

Appends share one handle, opened by the first `append` and kept until
`RunStore.close` (or the end of ``with RunStore(...)``). An `append` flushes
its line to the operating system before it returns unless told not to; the
runner says so for a block that sends no chat request and calls `flush` once
that block's walk returns, since such a round costs nothing to decide again.
Either way a crash leaves complete lines and at most one torn final line.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from json.encoder import encode_basestring_ascii as _quote  # as the encoder quotes
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .model import ScenarioConfig

MANIFEST_NAME = "manifest.json"
ROUNDS_NAME = "rounds.jsonl"
TORN_NAME = ROUNDS_NAME + ".torn"  # unterminated final lines that resume set aside


class IntegrityError(RuntimeError):
    """The stored run data is internally inconsistent."""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# the JSON types an annotation takes, and their name in a refusal; types match
# exactly, so true and false are neither integers nor numbers
_JSON_TYPES = {"str": ({str}, "a string"), "int": ({int}, "an integer"),
               "float": ({int, float}, "a number"), "bool": ({bool}, "true or false"),
               "dict": ({dict}, "an object"),
               "tuple[str, ...]": ({list, tuple}, "a list of strings")}
_JSON_TYPES |= {f"{kind} | None": (types | {type(None)}, wanted)
                for kind, (types, wanted) in _JSON_TYPES.items()}


def mistyped(cls, values: dict) -> tuple | None:
    """The first (field, value, JSON types named) of ``values`` that ``cls``'s annotation refuses.

    A field absent from ``values``, or of an annotation the table lacks (a nested spec), passes.
    """
    for name, kind in cls.__annotations__.items():
        # a NamedTuple's annotations are ForwardRefs; the one list annotation holds strings
        types, wanted = _JSON_TYPES.get(getattr(kind, "__forward_arg__", kind), ((), None))
        if wanted and name in values and (
                type(value := values[name]) not in types or type(value) in (list, tuple)
                and not all(isinstance(item, str) for item in value)):
            return name, value, wanted


class RoundRecord(NamedTuple):
    """One persisted round of one trajectory.

    The fields are declared in their serialization order; timestamps come
    last so diffs that exclude them are trivial.
    """

    run_id: str
    condition_index: int
    agent: str
    experiment: str
    dist: str
    order_condition: str
    repetition: int
    block_index: int
    margin: str
    round_index: int
    order: int
    demand: int
    profit: int
    cumulative_profit: int
    parse_confidence: str
    prompt_sha256: str
    raw_response: str
    retries: int = 0
    token_usage: dict | None = None
    ts_start: float = 0.0
    ts_end: float = 0.0

    def to_line(self) -> str:
        """``_LINE_ENCODER``'s line of the fields in order; from `_TAIL` where its bytes agree.

        A value not of `_TEMPLATE_TYPES`, NaN or inf gets the encoder's bytes or exception.
        """
        (round_index, order, demand, gain, total, confidence, digest, response, retries, _,
         start, end) = self[_HEAD:]
        if (tuple(map(type, self)) in _TEMPLATE_TYPES  # exact types: 1, 1.0 and True differ
                and -_INF < start < _INF and -_INF < end < _INF):
            return _line_head(self[:_HEAD]) + _TAIL % (
                round_index, order, demand, gain, total, _quote(confidence), _quote(digest),
                _quote(response), retries, start, end)
        return _LINE_ENCODER.encode(dict(zip(_RECORD_FIELDS, self)))

    @classmethod
    def from_line(cls, line: str | bytes, lineno: int) -> "RoundRecord":
        try:  # decoded first: json.loads of bytes would take UTF-16 and UTF-32 too
            data = json.loads(line if isinstance(line, str) else line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad bytes, too deep or too many digits
            raise IntegrityError(f"rounds.jsonl line {lineno}: malformed JSON ({exc})") from exc
        try:
            return cls._make(_record_values(data))
        except (KeyError, TypeError):  # a field is missing, or not an object
            if not isinstance(data, dict):
                raise IntegrityError(f"rounds.jsonl line {lineno}: not a JSON object") from None
            missing = [key for key in _RECORD_FIELDS if key not in data]
            raise IntegrityError(f"rounds.jsonl line {lineno}: missing fields {missing}") from None

    def identity(self) -> tuple:
        return (self.condition_index, self.repetition, self.block_index)


_RECORD_FIELDS = RoundRecord._fields
_record_values = itemgetter(*_RECORD_FIELDS)
_scan_once = json.JSONDecoder().scan_once  # the value at an index, as json.loads decodes it
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))
_RECORD_TYPES = tuple(_JSON_TYPES[kind.__forward_arg__][0]
                      for kind in RoundRecord.__annotations__.values())
_TYPE_ROWS = frozenset(product(*_RECORD_TYPES))  # each field's exact types a record may have
_HEAD = _RECORD_FIELDS.index("round_index")  # the fields before it label the trajectory
_round_index = itemgetter(_HEAD)
_head_values = itemgetter(*_RECORD_FIELDS[:_HEAD])  # the label head's fields, then the tail's
_tail_values = itemgetter(*_RECORD_FIELDS[_HEAD:])
_CUT = b',"round_index":'  # where the encoder's label head ends
_INF = float("inf")
# the per-round fields as the encoder writes them, for a record of these exact types
_TAIL = (',"round_index":%d,"order":%d,"demand":%d,"profit":%d,"cumulative_profit":%d,'
         '"parse_confidence":%s,"prompt_sha256":%s,"raw_response":%s,"retries":%d,'
         '"token_usage":null,"ts_start":%r,"ts_end":%r}')
_TEMPLATE_TYPES = frozenset(product(*_RECORD_TYPES[:-3], {type(None)}, *_RECORD_TYPES[-2:]))


@lru_cache(maxsize=64)  # a scripted run writes one trajectory at a time, an LLM run `workers`
def _line_head(labels: tuple) -> str:
    """The line up to its first per-round field, as the encoder writes the label fields."""
    return _LINE_ENCODER.encode(dict(zip(_RECORD_FIELDS, labels)))[:-1]


def _fields(data: bytes, values: itemgetter, size: int, end: str = "") -> tuple | None:
    """``values`` of the object ``data`` holds up to ``end`` if it has just their ``size`` keys."""
    try:  # a value that ends where ``data`` does, at "}" or "}\n", is an object
        text = data.decode("utf-8")
        value, stop = _scan_once(text, 0)
        return values(value) if text[stop:] == end and len(value) == size else None
    except (StopIteration, ValueError, RecursionError, KeyError):  # `from_line` words it
        return None


def _split_record(line: bytes, heads: dict) -> RoundRecord | None:
    """``line``'s record from its label head (decoded once per ``heads``) and tail, or None."""
    cut = line.find(_CUT)
    head = line[:cut]
    if cut > 0 and (labels := heads.get(head) or _fields(head + b"}", _head_values, _HEAD)):
        values = _fields(b"{" + line[cut + 1:], _tail_values, len(_RECORD_FIELDS) - _HEAD, "\n")
        return values and RoundRecord._make(heads.setdefault(head, labels) + values)


@dataclass
class Trajectory:
    """All rounds of one (condition, repetition, block): its scenario and its records.

    ``records`` are in round order and the first one's labels are the trajectory's.
    Complete once it holds every round of its scenario (``scenario.rounds``).
    """

    scenario: ScenarioConfig
    records: list[RoundRecord]

    condition_index = property(lambda self: self.records[0].condition_index)
    agent = property(lambda self: self.records[0].agent)
    order_condition = property(lambda self: self.records[0].order_condition)
    repetition = property(lambda self: self.records[0].repetition)
    block_index = property(lambda self: self.records[0].block_index)

    @property
    def complete(self) -> bool:
        return len(self.records) == self.scenario.rounds

    # columns are built on first read; ``records`` is not changed after that

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return tuple(r.order for r in self.records)

    @cached_property
    def demands(self) -> tuple[int, ...]:
        return tuple(r.demand for r in self.records)

    @cached_property
    def rationales(self) -> tuple[str, ...]:
        return tuple(r.raw_response for r in self.records)


class RunStore:
    """One run directory; create once, append rounds, read back validated."""

    def __init__(self, run_dir: Path | str):
        self.run_dir = Path(run_dir)
        self._append_lock = threading.Lock()
        self._handle = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info):
        self.close()

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    @property
    def rounds_path(self) -> Path:
        return self.run_dir / ROUNDS_NAME

    def exists(self) -> bool:
        return self.manifest_path.exists()

    def create(self, manifest: dict):
        if self.exists():
            raise IntegrityError(f"run store already exists at {self.run_dir}")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # written whole under another name and renamed, so a crash never
        # leaves a half-written manifest behind
        partial = self.run_dir / (MANIFEST_NAME + ".tmp")
        partial.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        partial.replace(self.manifest_path)
        self.rounds_path.touch()

    def manifest(self) -> dict:
        if not self.exists():
            raise IntegrityError(f"no run store at {self.run_dir}")
        try:
            return json.loads(self.manifest_path.read_bytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # as in `RoundRecord.from_line`
            raise IntegrityError(f"manifest.json is malformed: {exc}") from exc

    def append(self, record: RoundRecord, *, flush: bool = True):
        """Append one line, flushed unless ``flush`` is false; safe from several threads at once.

        The first append opens rounds.jsonl; the handle stays open until `close`.
        """
        line = record.to_line() + "\n"
        with self._append_lock:
            if self._handle is None:
                self._handle = self.rounds_path.open("a", encoding="utf-8")
            self._handle.write(line)
            if flush:
                self._handle.flush()

    def flush(self):
        """Flush the lines appended with ``flush=False`` to the operating system."""
        with self._append_lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self):
        """Flush and close the append handle, if one is open; a later append opens it again."""
        with self._append_lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def records(self) -> list[RoundRecord]:
        """Every stored round in line order.

        Each distinct label head is decoded once and shared by its records; a line spelled
        otherwise takes `RoundRecord.from_line`. A final line without its newline is the torn
        tail of an append that never finished; it is left out, whether or not it parses. Any
        other malformed line raises IntegrityError.
        """
        if not self.rounds_path.exists():
            return []
        heads = {}  # a head's bytes -> its label values
        with self.rounds_path.open("rb") as handle:  # bytes: a line not UTF-8 is malformed
            return [_split_record(line, heads) or RoundRecord.from_line(line, lineno)
                    for lineno, line in enumerate(handle, 1)
                    if line.endswith(b"\n") and line.strip()]

    def set_aside_torn_line(self) -> str | None:
        """Move an unterminated final line of rounds.jsonl to rounds.jsonl.torn.

        Appending after such a line would glue the next record onto it, so
        `resume` calls this before it appends anything. Returns the line set
        aside, or None when the file ends cleanly.
        """
        if not self.rounds_path.exists():
            return None
        with self.rounds_path.open("rb+") as handle:
            end = handle.seek(0, 2)
            if end == 0:
                return None
            handle.seek(end - 1)
            if handle.read(1) == b"\n":
                return None
            handle.seek(0)
            start = handle.read().rfind(b"\n") + 1  # only ever read after a crash
            handle.seek(start)
            torn = handle.read()
            with (self.run_dir / TORN_NAME).open("ab") as aside:
                aside.write(torn + b"\n")
            handle.truncate(start)
        return torn.decode("utf-8", errors="replace")


def where(record: RoundRecord) -> str:
    return (f"record (condition={record.condition_index}, order={record.order_condition}, "
            f"rep={record.repetition}, block={record.block_index}, round={record.round_index})")


def _refusal(records: list[RoundRecord], planned: dict) -> IntegrityError:
    """The refusal of the first record, in line order, of a wrong JSON type or outside the plan."""
    for record in records:
        # a JSON string or float here would end in a TypeError far from the record
        if tuple(map(type, record)) not in _TYPE_ROWS:
            return IntegrityError("{}: field {!r} is {!r}, not {}".format(
                where(record), *mistyped(RoundRecord, record._asdict())))
        head, sc = planned.get(record.identity(), ((), None))  # () matches no record's head
        if record[:_HEAD] != head or not 0 < record.round_index <= sc.rounds:
            mismatch = next((f": {name} {value!r} is not the plan's {label!r}" for name, value,
                             label in zip(_RECORD_FIELDS, record, head) if value != label), "")
            return IntegrityError(f"{where(record)} is outside the plan{mismatch}")


def group_trajectories(records: list[RoundRecord], planned: dict) -> dict[tuple, list]:
    """Each identity's records in round order, once their types and labels are the plan's.

    ``planned`` maps each identity the plan runs to its label head (the fields before
    ``round_index``) and ScenarioConfig. The first record, in line order, of a wrong JSON
    type or outside the plan is refused (`_refusal`); `runner.replay` checks the values.
    """
    by_head: dict[tuple, list[RoundRecord]] = {}
    for record in records:  # typed before hashed: 0.0 and True hash as 0 and 1 do
        if tuple(map(type, record)) not in _TYPE_ROWS:
            raise _refusal(records, planned)
        by_head.setdefault(record[:_HEAD], []).append(record)
    for head, rows in by_head.items():  # one head per identity: a second is not the plan's
        rows.sort(key=_round_index)
        planned_head, sc = planned.get(rows[0].identity(), ((), None))
        if head != planned_head or not 0 < rows[0].round_index <= rows[-1].round_index <= sc.rounds:
            raise _refusal(records, planned)
    return {rows[0].identity(): rows for rows in by_head.values()}
