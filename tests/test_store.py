"""The round-record line codec: lossless, byte-stable and immutable."""

import copy as copy_module
import itertools
import json
import math
import pickle
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

import nvlab.store as store_module
from nvlab.agents import AgentSpec
from nvlab.cli import main
from nvlab.llm import ChatClient
from nvlab.runner import ExperimentPlan, PlanCondition, run_plan
from nvlab.store import (_LINE_ENCODER, _RECORD_FIELDS, _TAIL, IntegrityError, RoundRecord,
                         RunStore, TypedRead, _line_head, _quote, group_trajectories)

RECORD = RoundRecord(
    run_id="run-0123456789ab", condition_index=1, agent="model-ü", experiment="E2",
    dist="truncated-normal", order_condition="low-first", repetition=3, block_index=2,
    margin="high", round_index=7, order=180, demand=95, profit=255.25,
    cumulative_profit=-1234.5, parse_confidence="fallback", prompt_sha256="ab" * 32,
    raw_response="Bestellung: 180 Stück — «sicher» ✓\nline two\t\"quoted\"", retries=2,
    token_usage={"prompt_tokens": 42, "completion_tokens": 17, "total_tokens": 59},
    ts_start=1700000000.125, ts_end=1700000001.5,
)


def assert_lines_round_trip(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines
    for lineno, line in enumerate(lines, start=1):
        assert RoundRecord.from_line(line, lineno).to_line() == line
    return [RoundRecord.from_line(line, lineno) for lineno, line in enumerate(lines, start=1)]


def test_scripted_grid_lines_round_trip(tmp_path):
    assert main(["simulate", "--reps", "1", "--rounds", "3", "--out", str(tmp_path)]) == 0
    run_dirs = sorted(tmp_path.iterdir())
    assert len(run_dirs) == 4
    for run_dir in run_dirs:
        assert_lines_round_trip(run_dir / "rounds.jsonl")


def test_llm_store_lines_round_trip(tmp_path, stub_server):
    """Retried requests, token usage, fallback parses and non-ASCII replies survive."""
    stub_server.mode = "flaky"  # one worker: each request is rate-limited once, then answered
    replies = itertools.cycle([
        "After weighing the trade-off, I will order 150 wodgets.",
        "Demand averages 150, price 12. Decision: 140.",
        "Je commande 160 unités, à peu près — ça ira ✓",
    ])
    stub_server.reply_fn = lambda body: next(replies)
    agent = AgentSpec("llm", model_name="test-model")
    plan = ExperimentPlan((PlanCondition("E1-baseline", "uniform", agent, "high-first",
                                         repetitions=2, rounds_per_block=3, base_seed=7),))

    def factory(spec):
        return ChatClient(stub_server.url, spec.model_name, api_key="k",
                          max_retries=1, backoff_base=0.001)

    assert run_plan(plan, tmp_path / "run", client_factory=factory, workers=1).complete
    records = assert_lines_round_trip(tmp_path / "run" / "rounds.jsonl")
    assert len(records) == 12
    assert all(r.retries > 0 and isinstance(r.token_usage, dict) for r in records)
    assert any(r.parse_confidence == "fallback" for r in records)
    assert any(not r.raw_response.isascii() for r in records)


def test_hand_built_record_round_trips():
    line = RECORD.to_line()
    assert line.isascii()  # non-ASCII text is escaped, as json.dumps does by default
    assert line == json.dumps(RECORD._asdict(), separators=(",", ":"))
    assert list(json.loads(line)) == list(RoundRecord._fields)
    assert RoundRecord.from_line(line, 1) == RECORD
    assert RoundRecord.from_line(line, 1).to_line() == line


def test_record_defaults():
    record = RoundRecord(*RECORD[:17])
    assert record[17:] == (0, None, 0.0, 0.0)  # retries, token_usage, ts_start, ts_end


def test_record_fields_cannot_be_assigned():
    with pytest.raises(AttributeError):
        RECORD.order = 1
    with pytest.raises(AttributeError):
        RECORD.token_usage = None
    assert RECORD._replace(order=1).order == 1 and RECORD.order == 180


@pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
def test_from_line_of_a_non_object(text):
    with pytest.raises(IntegrityError, match="line 4: not a JSON object"):
        RoundRecord.from_line(text, 4)


def test_from_line_names_missing_fields():
    data = json.loads(RECORD.to_line())
    del data["demand"]
    with pytest.raises(IntegrityError, match=r"line 2: missing fields \['demand'\]"):
        RoundRecord.from_line(json.dumps(data), 2)
    with pytest.raises(IntegrityError, match="line 3: malformed JSON"):
        RoundRecord.from_line(RECORD.to_line()[:-1], 3)


def write_lines(tmp_path, lines: list[bytes]):
    """A run directory whose rounds.jsonl holds ``lines``, each ended by a newline."""
    (tmp_path / "rounds.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    return RunStore(tmp_path)


def test_lines_with_spaces_a_crlf_or_an_extra_key_read_as_json_loads_reads_them(tmp_path):
    records = [RECORD._replace(round_index=index) for index in range(1, 6)]
    line = [record.to_line().encode() for record in records]
    store = write_lines(tmp_path, [
        line[0],
        b"  " + line[1],  # leading spaces
        line[2] + b" \t",  # trailing spaces
        line[3] + b"\r",  # CRLF
        line[4][:-1] + b',"note":"an extra key"}',
    ])
    assert store.records() == records


@pytest.mark.parametrize("bad, message", [
    (lambda line: line + line, "malformed JSON (Extra data: line 1 column 626 (char 625))"),
    (lambda line: b"[" + line + b"]", "not a JSON object"),
    (lambda line: line.replace(b'"demand":95,', b""), "missing fields ['demand']"),
    (lambda line: line.replace(b"run-0123", b"run-\xff123"),
     "malformed JSON ('utf-8' codec can't decode byte 0xff in position 15: invalid start byte)"),
], ids=["two-objects", "array", "missing-field", "non-utf-8"])
def test_a_malformed_line_is_refused_with_its_number(tmp_path, bad, message):
    line = RECORD.to_line().encode()
    assert len(line) == 625 and line.index(b"0123") == 15  # the positions the messages name
    store = write_lines(tmp_path, [line, bad(line), line])
    with pytest.raises(IntegrityError) as refused:
        store.records()
    assert str(refused.value) == f"rounds.jsonl line 2: {message}"


# --- a read decodes each label head once, to what the full decode gives -------


def _with_value(line: bytes, field: str, value: bytes) -> bytes:
    """``line`` with ``field``'s value, a plain literal or a plain string, spelled ``value``."""
    start = line.index(b'"%s":' % field.encode()) + len(field) + 3
    end = line.index(b'",' if line[start:start + 1] == b'"' else b",", start + 1)
    return line[:start] + value + line[end + (line[start:start + 1] == b'"'):]


def _bad_byte(rng, line: bytes) -> bytes:
    key = b'"%s":"' % rng.choice(["agent", "raw_response"]).encode()
    return line.replace(key, key + b"\xff", 1)


def _reorder(rng, line: bytes) -> bytes:
    data = json.loads(line)
    keys = rng.sample(list(data), len(data))
    return json.dumps({key: data[key] for key in keys}, separators=(",", ":")).encode() + b"\n"


# each mutation of one line, a label field (in the head) or a round field drawn where it
# can be either; the template declines every mutated line but a shuffle's, which may keep
# the round fields last and in order
MUTATIONS = {
    "key-order": _reorder,
    "json-dumps-spacing": lambda rng, line: json.dumps(json.loads(line)).encode() + b"\n",
    "duplicate-key-in-tail": lambda rng, line: line.replace(
        b',"order":', b',"%s":123,"order":' % rng.choice([b"order", b"demand"]), 1),
    "head-key-in-tail": lambda rng, line: line[:-2] + b',"%s":"again"}\n' % rng.choice(
        ["run_id", "agent", "margin"]).encode(),
    "cut-inside-nested-label": lambda rng, line: _with_value(
        line, rng.choice(["run_id", "agent", "margin"]), b'{"k":1,"round_index":2}'),
    "trailing-spaces": lambda rng, line: line[:-1] + b" " * rng.randint(1, 3) + b"\n",
    "tail-cut-short": lambda rng, line: line[:-rng.randint(2, 40)] + b"\n",
    "nan": lambda rng, line: _with_value(line, rng.choice(["repetition", "ts_start"]), b"NaN"),
    "4301-digits": lambda rng, line: _with_value(
        line, rng.choice(["repetition", "order"]), b"7" * 4301),
    "non-utf-8": _bad_byte,
}


def _source_stores(tmp_path) -> dict:
    """Lines nvlab wrote: a scripted store, and an LLM-shaped one with token usage."""
    assert main(["simulate", "--agent", "demand-chaser", "--experiment", "E1", "--reps", "2",
                 "--rounds", "3", "--out", str(tmp_path / "scripted")]) == 0
    (scripted,) = (tmp_path / "scripted").iterdir()
    with RunStore(tmp_path / "llm") as store:
        store.create({"format": "nvlab-run/1"})
        for index in range(12):
            store.append(RECORD._replace(
                repetition=index % 3, round_index=index // 3 + 1, order=150 + index,
                token_usage={"prompt_tokens": 40 + index, "total_tokens": 60 + index},
                raw_response=f"order {150 + index}, \"round_index\":{index}").to_line())
    return {name: (path / "rounds.jsonl").read_bytes().splitlines(keepends=True)
            for name, path in (("scripted", scripted), ("llm", tmp_path / "llm"))}


def _full_decode(lines) -> list | str:
    """`RoundRecord.from_line` of each line, or the text of the first refusal."""
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            out.append(RoundRecord.from_line(line, lineno))
        except IntegrityError as exc:
            return str(exc)
    return out


def _counted_read(monkeypatch, run_dir) -> tuple[list | str, int, int]:
    """The store's records (or its refusal text), its `from_line` calls and its JSON scans."""
    counts = {"from_line": 0, "scan": 0}
    from_line, scan_once = RoundRecord.from_line.__func__, store_module._scan_once

    def counted_from_line(cls, line, lineno):
        counts["from_line"] += 1
        return from_line(cls, line, lineno)

    def counted_scan(text, index):
        counts["scan"] += 1
        return scan_once(text, index)

    with monkeypatch.context() as patch:
        patch.setattr(RoundRecord, "from_line", classmethod(counted_from_line))
        patch.setattr(store_module, "_scan_once", counted_scan)
        try:
            read = RunStore(run_dir).records()
        except IntegrityError as exc:
            read = str(exc)
    return read, counts["from_line"], counts["scan"]


def test_lines_nvlab_writes_decode_each_label_head_once(tmp_path, monkeypatch):
    for name, lines in _source_stores(tmp_path).items():
        (tmp_path / name).mkdir(exist_ok=True)
        (tmp_path / name / "rounds.jsonl").write_bytes(b"".join(lines))
        read, fallbacks, scans = _counted_read(monkeypatch, tmp_path / name)
        heads = {line[:line.index(b',"round_index":')] for line in lines}
        assert repr(read) == repr(_full_decode(lines))
        # a scripted line's tail is read by the template's inverse; one with token usage
        # (an object) takes `from_line`; either way each distinct head is decoded once
        decoded = len(lines) if name == "llm" else 0
        assert (len(read), fallbacks, scans) == (len(lines), decoded, len(heads))
        assert isinstance(read, TypedRead) == (name == "scripted")
        assert 1 < len(heads) < len(lines)
        if name == "scripted":  # the records of one head share its label values
            first = {}
            assert all(first.setdefault(record[:9], record)[index] is record[index]
                       for record in read for index in range(9))


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_a_read_equals_the_full_decode_of_each_line_on_a_seeded_sweep(
        tmp_path, monkeypatch, mutation):
    """Each read gives `from_line`'s records, in value and exact type, or its refusal."""
    rewrite = MUTATIONS[mutation]
    for name, lines in _source_stores(tmp_path).items():
        rng = random.Random(f"{mutation}-{name}")
        for trial in range(4):
            mutated = sorted(rng.sample(range(1, len(lines)), rng.randint(1, 3)))
            edited = [rewrite(rng, line) if index in mutated else line
                      for index, line in enumerate(lines)]
            run_dir = tmp_path / f"{name}-{trial}"
            run_dir.mkdir()
            (run_dir / "rounds.jsonl").write_bytes(b"".join(edited))
            read, fallbacks, _ = _counted_read(monkeypatch, run_dir)
            expected = _full_decode(edited)
            assert [line for line in edited if line not in lines]  # each draw changed a line
            assert repr(read) == repr(expected)  # repr tells 1, 1.0, True and nan apart
            if mutation != "key-order":  # `from_line` takes each mutated or LLM line
                decoded = [index for index in range(len(lines))
                           if name == "llm" or index in mutated]
                if isinstance(expected, str):  # the first mutated line is refused: no more
                    decoded = [index for index in decoded if index <= mutated[0]]
                assert fallbacks == len(decoded)


# a record of the types the line template writes (integer money, no token usage)
TEMPLATED = RECORD._replace(profit=255, cumulative_profit=-1234, raw_response="order 180",
                            token_usage=None)


@pytest.mark.parametrize("field, spelling, typed", [
    ("order", b"123456789012345678", True),  # 18 digits
    ("demand", b"1234567890123456789", True),  # 19 digits: the template's longest int
    ("profit", b"-1234567890123456789", True),
    ("cumulative_profit", b"12345678901234567890", False),  # 20 digits: `from_line` reads it
    ("retries", b"-0", True),
    ("round_index", b"07", False),  # not JSON: refused
    ("ts_start", b"5", False),  # an int, as json.loads reads it
    ("ts_start", b"1e5", False),
    ("ts_start", b"-0.0", True),
    ("ts_start", b"1.5e-7", True),
    ("ts_start", b"NaN", False),
    ("ts_start", b"Infinity", False),
    ("raw_response", '"Stück ✓"'.encode(), False),  # raw UTF-8, which the writer escapes
    ("raw_response", b'"a\x7fb"', True),  # DEL is no control character to JSON
    ("raw_response", b'"a\x01b"', False),  # a control character: refused
    ("raw_response", b'"say \\"150\\""', False),
    ("parse_confidence", b'"caf\\u00e9"', False),
    ("token_usage", b'{"total_tokens":59}', False),
    ("margin", b'"high"}', False),  # the object closed before its round fields: refused
], ids=lambda value: value.decode("utf-8", "replace") if isinstance(value, bytes) else None)
def test_a_template_read_is_the_full_decode_of_each_spelling_or_declines(
        tmp_path, field, spelling, typed):
    line = _with_value(TEMPLATED.to_line().encode() + b"\n", field, spelling)
    assert spelling in line and TEMPLATED.to_line().encode() + b"\n" != line
    # at line 1, then at line 2 after a clean line of the same head, which it repeats
    for lines in ([line[:-1], TEMPLATED.to_line().encode()],
                  [TEMPLATED.to_line().encode(), line[:-1]]):
        read = _read_or_refusal(write_lines(tmp_path, lines))
        assert repr(read) == repr(_full_decode(lines))
        assert isinstance(read, TypedRead) == typed


def _read_or_refusal(store) -> list | str:
    try:
        return store.records()
    except IntegrityError as exc:
        return str(exc)


def _round_line(round_index: int, block_index: int = 1, **fields) -> bytes:
    return TEMPLATED._replace(round_index=round_index, block_index=block_index,
                              **fields).to_line().encode()


def _raw_agent(line: bytes) -> bytes:
    """``line`` with its agent ``model-ü`` in raw UTF-8, a byte longer than the character."""
    assert b'"agent":"model-\\u00fc"' in line
    return line.replace(b"model-\\u00fc", "model-ü".encode())


# lines that repeat, or do not repeat, the last line's head: the lines, whether the read
# is typed, and the lines whose head is not the last line's, whose head the read finds on
# its own; a line whose tail the template declines leaves the last head in place
HEAD_RUNS = {
    "interleaved-blocks": (lambda: [_round_line(r, b) for r in (1, 2, 3) for b in (1, 2)],
                           True, 6),
    "run-cut-and-resumed": (lambda: [_round_line(1), _round_line(2), _round_line(1, 2),
                                     _round_line(3), _round_line(4)], True, 3),
    "raw-utf-8-head": (lambda: [_raw_agent(_round_line(r)) for r in (1, 2, 3)], True, 1),
    "raw-utf-8-head-and-tail": (lambda: [_raw_agent(_round_line(1)), _raw_agent(_round_line(
        2)).replace(b"order 180", "Bestellung ✓".encode()), _raw_agent(_round_line(3))],
                                False, 1),
    "token-usage": (lambda: [_round_line(1), _round_line(2, token_usage={"total_tokens": 59}),
                             _round_line(3)], False, 1),
}


@pytest.mark.parametrize("case", HEAD_RUNS)
def test_a_line_that_repeats_the_last_head_reads_as_its_full_decode(tmp_path, monkeypatch,
                                                                     case):
    build, typed, found = HEAD_RUNS[case]
    lines, labels, calls = build(), store_module._labels, []

    def counted(line, *args):
        calls.append(line)
        return labels(line, *args)

    monkeypatch.setattr(store_module, "_labels", counted)
    read = _read_or_refusal(write_lines(tmp_path, lines))
    assert repr(read) == repr(_full_decode(lines))
    assert isinstance(read, TypedRead) == typed
    assert len(calls) == found  # each other line took the last head's labels


@pytest.mark.parametrize("blocks, named", [
    ({1: [1, 2, 4, 3]}, (1, 4)),  # inside a run, past its block
    ({1: [1, 0, 2, 3]}, (1, 0)),
    ({1: [1, 2, 3], 2: [1, 2, 3, 4]}, (2, 4)),  # the second run's last round
    ({1: [1, 2, 3], 3: [1]}, (3, 1)),  # a run whose head the plan does not run
], ids=["past-the-block", "round-0", "second-run", "unplanned-head"])
def test_a_typed_read_names_the_first_round_outside_its_block_as_its_copy_does(
        tmp_path, blocks, named):
    """Runs of one head, each read after its first line with that line's labels: the
    refusal names the first record, in line order, outside its block, as a plain list's."""
    lines = [_round_line(r, b) for b, rounds in blocks.items() for r in rounds]
    read = write_lines(tmp_path, lines).records()
    assert type(read) is TypedRead
    planned = {(1, 3, b): (TEMPLATED._replace(block_index=b)[:9], SimpleNamespace(rounds=3))
               for b in (1, 2)}  # blocks 1 and 2 of 3 rounds each
    block, round_index = named
    for records in (read, list(read)):
        with pytest.raises(IntegrityError, match=re.escape(
                f"block={block}, round={round_index}) is outside the plan")):
            group_trajectories(records, planned)


def test_a_typed_read_takes_no_new_record_and_its_copies_are_lists(tmp_path):
    store = write_lines(tmp_path, [TEMPLATED.to_line().encode()])
    read = store.records()
    assert type(read) is TypedRead and read == [TEMPLATED]
    for add in (lambda: read.append(TEMPLATED), lambda: read.extend([TEMPLATED]),
                lambda: read.insert(0, TEMPLATED), lambda: read.__setitem__(0, TEMPLATED),
                lambda: read.__iadd__([TEMPLATED])):
        with pytest.raises(TypeError, match="a typed read takes no new records"):
            add()
    assert read == [TEMPLATED]
    for copy in (list(read), read[:], read + [], copy_module.copy(read),
                 pickle.loads(pickle.dumps(read))):
        assert type(copy) is list and copy == [TEMPLATED]


# --- the line writer is the encoder, byte for byte ----------------------------

INTS = [0, 1, 7, -3, 2**63, 10**400]
NUMBERS = [0.0, -0.0, 255.25, -1234.5, 1e308, 5e-324, 1700000000.125, 3, -0.5, 2**63, 10**400,
           float("nan"), float("inf"), float("-inf")]
STRINGS = ["", "exact", "ab" * 32, 'say "150"', "back\\slash", "\x00\x1f\x7f\n\t", "Stück ✓",
           "\ud800 lone", "\U0001f600", "</script>"]
USAGES = [None, {"prompt_tokens": 42}, {2: 1, None: 3, False: 4, 1.5: "x"}, {}]
# a value of another type than its field's, or none the encoder takes (the last three)
STRAYS = [True, False, 1.0, 1, None, "1", np.float64(2.5), [1], {"k": 1}, 10**5000,
          np.int64(7), {(1, 2): 3}]
BANKS = {"str": STRINGS, "int": INTS, "float": NUMBERS, "dict | None": USAGES}


def assert_written_as_encoded(record, write=RoundRecord.to_line):
    """``write`` (``to_line``) gives the encoder's line, or raises the encoder's exception type."""
    try:
        expected = _LINE_ENCODER.encode(dict(zip(_RECORD_FIELDS, record)))
    except Exception as exc:  # whatever the encoder raises, the writer raises
        with pytest.raises(type(exc)):
            write(record)
    else:
        assert write(record) == expected


def test_label_ints_one_true_and_one_point_zero_get_their_own_lines():
    # the same labels by ==, of three types: each line is the encoder's, in any order
    for value in (1, True, 1.0, 1, 1.0, True):
        record = RECORD._replace(condition_index=value, token_usage=None)
        assert_written_as_encoded(record)
        assert f'"condition_index":{json.dumps(value)},' in record.to_line()


# the exact types the line template spells, by annotation: token usage only as null
TEMPLATE_TYPES = {"str": {str}, "int": {int}, "float": {int, float}, "dict | None": {type(None)}}


def templated_line(record) -> str:
    """``record`` spelled as the scripted walk spells its rounds: the label head's text, then
    `_TAIL` of the round's values."""
    (round_index, order, demand, gain, total, confidence, digest, response, retries, _,
     start, end) = record[9:]
    return _line_head(record[:9]) + _TAIL % (
        round_index, order, demand, gain, total, _quote(confidence), _quote(digest),
        _quote(response), retries, start, end)


def test_to_line_equals_the_encoder_on_a_seeded_sweep():
    """``to_line`` is the encoder; and for each draw of the template's types (exact ints and
    strs, null usage, finite floats), so is the template the scripted walk fills."""
    rng = random.Random(20260418)
    kinds = [kind.__forward_arg__ for kind in RoundRecord.__annotations__.values()]
    templated = 0
    for _ in range(3000):
        # mostly values of each field's own type, a few fields with a stray value
        values = [rng.choice(BANKS[kind]) for kind in kinds]
        # a block's rounds share their labels: draw them from a few label tuples
        values[:9] = rng.choice([RECORD[:9], RECORD._replace(repetition=4)[:9], values[:9]])
        if rng.random() < 0.5:  # plain values, as a scripted round stores, or float money
            values[12:14] = rng.choice([(597, 2622), (-3, 7), (0, 0), (255.25, -1234.5)])
            values[18:] = None, 1700000000.125, 1700000001.5
        for index in rng.sample(range(len(values)), rng.choice([0, 0, 0, 1, 2])):
            values[index] = rng.choice(STRAYS)
        record = RoundRecord(*values)
        assert_written_as_encoded(record)
        if all(type(value) in TEMPLATE_TYPES[kind] for kind, value in zip(kinds, values)) and all(
                -math.inf < value < math.inf for value in values[-2:]):
            assert_written_as_encoded(record, templated_line)
            templated += 1
    assert templated > 500  # the template spelled a share of the lines


@pytest.mark.parametrize("flush", [True, False], ids=["flushed", "queued"])
def test_an_append_of_a_record_not_its_line_is_refused_before_anything_is_queued(
        tmp_path, flush):
    with RunStore(tmp_path / "run") as store:
        store.create({"format": "nvlab-run/1"})
        with pytest.raises(TypeError, match="append takes a line, a str, not RoundRecord"):
            store.append(RECORD, flush=flush)
        with pytest.raises(TypeError, match="not bytes"):
            store.append(RECORD.to_line().encode(), flush=flush)
        store.append(RECORD.to_line(), flush=False)
    assert store.rounds_path.read_text(encoding="utf-8") == RECORD.to_line() + "\n"


def test_an_unflushed_append_is_on_disk_once_flushed_or_closed(tmp_path):
    second = RECORD._replace(round_index=8)
    with RunStore(tmp_path / "run") as store:
        store.create({"format": "nvlab-run/1"})
        store.flush()  # nothing appended yet: nothing to write
        store.append(RECORD.to_line(), flush=False)
        assert RunStore(tmp_path / "run").records() == []  # still queued in the store
        store.flush()
        assert RunStore(tmp_path / "run").records() == [RECORD]
        store.append(second.to_line(), flush=False)
    assert RunStore(tmp_path / "run").records() == [RECORD, second]
