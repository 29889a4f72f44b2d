"""Durable run store: append-only JSONL of round records plus a plan manifest.

Layout of one run directory::

    <run_dir>/
      manifest.json   # serialized plan, plan hash, template digests
      rounds.jsonl    # one RoundRecord per line, append-only
      rounds.jsonl.torn  # only after a crash mid-append: the torn final
                         # lines that resume set aside

Records are immutable named tuples. A record's line is its fields in declaration order
as the compact JSON encoder writes them, which is what `RoundRecord.to_line` does.
`_HEAD_TEMPLATE` (the label head) and `_TAIL` (the round's fields) spell those bytes for
values of known JSON types; the runner's scripted walk, whose values' types are known, is
their one writer. `RunStore.append` takes the line. Records carry their full trajectory
identity (condition index, repetition, block, round) so concurrent trajectories can
interleave safely. A read has one path for a line: its label head (the line through
``,"round_index":``), reused from the last line or decoded once per distinct head, then
the tail. Under labels of known JSON types, a tail spelled as `_TAIL` writes it is parsed
by the template's inverse and the record shares its head's labels; any other line takes
`RoundRecord.from_line`. A read whose every line took the template is a `TypedRead`. A
malformed or non-UTF-8 line raises IntegrityError naming it; `group_trajectories` makes
one pass, in line order, and refuses the first record whose JSON types (money is an
integer; a `TypedRead`'s are known) or labels and round index are not the plan's, with
no rescan to word it; it groups the rest by identity.
A round's values are checked by the runner's walk (`runner.replay`). A `Trajectory`
is its scenario and its records, whose first labels it. A run's outcome holds the
rounds it read and those it appended, in the blocks the runner walked, so the
runner never reads the file back.

Appends share one handle, opened by the first write and kept until
`RunStore.close` (or the end of ``with RunStore(...)``). An `append` flushes its
line to the operating system before it returns unless told not to; the runner says
so for a block that sends no chat request, since such a round costs nothing to
decide again. An unflushed line is queued, and the next flushed `append`, `flush`
(the runner's, once that block's walk returns) or `close` writes the queued lines
in one call. Either way a crash leaves complete lines and at most one torn final
line. An OSError the handle raises is raised again naming rounds.jsonl; a close
that raises one still closes the handle.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import dataclass
from functools import cached_property
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
        """``_LINE_ENCODER``'s line of the fields in order (the scripted walk's, for its rounds)."""
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
_head_values = itemgetter(*_RECORD_FIELDS[:_HEAD])  # the label head's fields
_CUT = b',"round_index":'  # where the encoder's label head ends
_NO_HEAD = b"\n\n"  # no line starts with it: a line holds one newline, at its end
# the per-round fields as the encoder writes them, for a record of these exact types and
# finite floats; the runner's scripted walk fills it (and `_HEAD_TEMPLATE`) for its rounds
_TAIL = (',"round_index":%d,"order":%d,"demand":%d,"profit":%d,"cumulative_profit":%d,'
         '"parse_confidence":%s,"prompt_sha256":%s,"raw_response":%s,"retries":%d,'
         '"token_usage":null,"ts_start":%r,"ts_end":%r}')
# the label fields as the encoder writes them, up to the first per-round field
_HEAD_TEMPLATE = ('{"run_id":%s,"condition_index":%d,"agent":%s,"experiment":%s,"dist":%s,'
                  '"order_condition":%s,"repetition":%d,"block_index":%d,"margin":%s')
_TYPED_HEADS = frozenset(product(*_RECORD_TYPES[:_HEAD]))
# `_TAIL` inverted, for the spellings whose value needs no JSON decode to be json.loads's:
# ints of the JSON grammar up to 19 digits (well short of int's digit limit), strings of
# ASCII with no quote, backslash or control character (the writer escapes the rest; as
# ranges, which sre tests faster than a negated set and compiles faster than one up to
# U+10FFFF), and floats with a fraction; any other spelling does not match
_TAIL_FIELDS = re.compile(
    re.escape(_TAIL).replace("%d", r"(-?(?:[1-9][0-9]{0,18}|0))")
    .replace("%s", r'"([\]-\x7f#-\[ !]*)"')
    .replace("%r", r"(-?(?:[1-9][0-9]*|0)\.[0-9]+(?:[eE][-+]?[0-9]+)?)") + "\n")


def _line_head(labels: tuple) -> str:  # a scripted block asks once
    """`_HEAD_TEMPLATE` of label fields of exact JSON types, as `_TYPED_HEADS` holds."""
    run_id, index, agent, experiment, dist, order, repetition, block, margin = labels
    return _HEAD_TEMPLATE % (_quote(run_id), index, _quote(agent), _quote(experiment),
                             _quote(dist), _quote(order), repetition, block, _quote(margin))


def _labels(line: bytes, heads: dict) -> tuple[bytes, tuple | None]:
    """``line``'s head through `_CUT` (`_NO_HEAD` if it has none) and, decoded once per
    ``heads``, the head's labels if of `_TYPED_HEADS`, else None."""
    head, cut, _ = line.partition(_CUT)
    if (prefix := head + cut if cut else _NO_HEAD) not in heads:
        try:  # a value that ends where the head does, at the "}" put for its cut, is an object
            text = head.decode("utf-8") + "}"
            value, stop = _scan_once(text, 0)
            labels = _head_values(value) if stop == len(text) and len(value) == _HEAD else ()
        except (StopIteration, ValueError, RecursionError, KeyError):  # `from_line` words it
            labels = ()
        heads[prefix] = labels if tuple(map(type, labels)) in _TYPED_HEADS else None
    return prefix, heads[prefix]


def _templated(labels: tuple, tail: re.Match) -> RoundRecord:  # of `_TAIL_FIELDS`'s values
    (round_index, order, demand, gain, total, confidence, digest, response, retries, start,
     end) = tail.groups()
    return tuple.__new__(RoundRecord, labels + (
        int(round_index), int(order), int(demand), int(gain), int(total), confidence, digest,
        response, int(retries), None, float(start), float(end)))


class TypedRead(list):
    """A read whose every line `_TAIL_FIELDS` parsed under a head of `_TYPED_HEADS`, so
    each record's JSON types are known. It takes no new record; a copy (``list(read)``, a
    slice, `copy.copy`) is a plain list, whose records `group_trajectories` types one by one.
    """

    def _refuse(self, *_):
        raise TypeError("a typed read takes no new records; change a copy, list(read)")

    __setitem__ = __iadd__ = append = extend = insert = _refuse

    def __reduce__(self):
        return list, (list(self),)


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
        self._queued = []  # the lines appended since the last write, without their newlines

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

    def append(self, line: str, *, flush: bool = True):
        """Append one record's ``line`` (no newline), flushed unless ``flush`` is false; safe
        from several threads at once. A ``line`` that is not a str, such as a record (pass
        ``record.to_line()``), raises TypeError before anything is queued.

        An unflushed line waits in the store's queue; the next flushed append, `flush` or
        `close` writes the queued lines in one call. The first write opens rounds.jsonl; the
        handle stays open until `close`.
        """
        if not isinstance(line, str):  # else the join of a later write fails far from here
            raise TypeError(f"append takes a line, a str, not {type(line).__name__}")
        with self._append_lock:
            self._queued.append(line)
        if flush:
            self._write()

    def flush(self):
        """Write the queued lines and flush them to the operating system."""
        self._write()

    def close(self):
        """Write the queued lines and close the append handle; a later append opens it again."""
        self._write(close=True)

    def _write(self, close: bool = False):
        """Under the append lock, write the queued lines in one call, then flush or close."""
        with self._append_lock:
            text = "\n".join(self._queued) + "\n" if self._queued else ""
            self._queued.clear()  # before the write: a line is handed to the handle once
            try:
                if text and self._handle is None:
                    self._handle = self.rounds_path.open("a", encoding="utf-8")
                if (handle := self._handle) is None:
                    return
                if close:
                    self._handle = None  # a close that fails leaves no closed handle behind
                    with handle:  # closed even when the write fails
                        handle.write(text)
                else:
                    handle.write(text)
                    handle.flush()
            except OSError as exc:  # the shared handle's own errors name no file
                raise OSError(exc.errno, exc.strerror, str(self.rounds_path)) from exc

    def records(self) -> list[RoundRecord]:
        """Every stored round in line order; a `TypedRead` if the template read every line.

        A line that does not start with the last one's head through `_CUT` finds its own
        (`_labels`), decoded once per distinct head. Under labels of `_TYPED_HEADS`, a tail
        `_TAIL_FIELDS` matches becomes a record that shares them; any other line takes
        `RoundRecord.from_line`. A final line with no newline, torn by an unfinished append,
        is left out; any other malformed line raises IntegrityError.
        """
        if not self.rounds_path.exists():
            return []
        read, typed, prefix, labels = [], True, _NO_HEAD, None
        heads = {_NO_HEAD: None}  # a head through `_CUT` -> its typed labels, or None
        with self.rounds_path.open("rb") as handle:  # bytes: a line not UTF-8 is malformed
            for lineno, line in enumerate(handle, 1):  # a line holds one newline, at its end
                if not line.startswith(prefix):
                    prefix, labels = _labels(line, heads)
                if labels and (tail := _TAIL_FIELDS.fullmatch(  # latin-1 keeps offsets; the
                        line.decode("latin-1"), len(prefix) - len(_CUT))):  # tail is ASCII
                    read.append(_templated(labels, tail))
                elif line.endswith(b"\n") and not line.isspace():
                    read.append(RoundRecord.from_line(line, lineno))
                    typed = False
        return TypedRead(read) if typed else read

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


def group_trajectories(records: list[RoundRecord], planned: dict) -> dict[tuple, list]:
    """Each identity's records in round order, once their types and labels are the plan's.

    ``planned`` maps each identity the plan runs to its label head (the fields before
    ``round_index``) and ScenarioConfig. One pass, in line order, refuses the first record
    of a wrong JSON type, of a head not the plan's (checked where the head first appears)
    or of a round index outside its block; nothing is scanned again to word the refusal.
    A `TypedRead`'s types are known, so only its labels and round indices are checked.
    `runner.replay` checks the values.
    """
    groups: dict[tuple, tuple] = {}  # a head -> (its block's rounds, its records)
    typed = type(records) is TypedRead  # each record's types are known: no row to compute
    for record in records:  # typed before hashed: 0.0 and True hash as 0 and 1 do
        if not typed and tuple(map(type, record)) not in _TYPE_ROWS:  # else a far TypeError
            raise IntegrityError("{}: field {!r} is {!r}, not {}".format(
                where(record), *mistyped(RoundRecord, record._asdict())))
        if (group := groups.get(head := record[:_HEAD])) is None:  # a head is checked once
            planned_head, sc = planned.get(record.identity(), ((), None))  # () is no record's
            # one head per identity: a second is not the plan's, nor any of its rounds
            group = groups[head] = (sc.rounds if head == planned_head else 0, [])
        if not 0 < record.round_index <= group[0]:
            wanted = planned.get(record.identity(), ((),))[0]
            mismatch = next((f": {name} {value!r} is not the plan's {label!r}" for name, value,
                             label in zip(_RECORD_FIELDS, head, wanted) if value != label), "")
            raise IntegrityError(f"{where(record)} is outside the plan{mismatch}")
        group[1].append(record)
    return {rows[0].identity(): sorted(rows, key=_round_index) for _, rows in groups.values()}
