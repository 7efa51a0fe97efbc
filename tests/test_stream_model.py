"""Event model, schema, and stream reader/writer behavior."""

import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    Event,
    FeatureSchema,
    FeatureSpec,
    read_stream,
    write_csv_stream,
)
from driftwatch.stream_model import (
    SchemaError,
    ScoreRangeError,
    StreamError,
    TimestampOrderError,
    normalize_numeric,
    read_csv_stream,
    read_jsonl_stream,
)
from helpers import schema_of

AMOUNT_CHANNEL = schema_of(("amount", NUMERIC), ("channel", CATEGORICAL))


def parse_csv(text, schema=AMOUNT_CHANNEL):
    return list(read_csv_stream(io.StringIO(text), schema))


class TestCsvReader:
    def test_plain_row(self):
        events = parse_csv("timestamp,score,amount,channel\n1000,0.97,12.5,web\n")
        assert events == [Event(1000, 0.97, (12.5, "web"))]

    def test_score_above_one_rejected(self):
        with pytest.raises(ScoreRangeError) as exc:
            parse_csv("timestamp,score,amount,channel\n1000,1.2,1.0,web\n")
        assert exc.value.line_number == 2

    def test_empty_numeric_cell_is_missing(self):
        events = parse_csv("timestamp,score,amount,channel\n1000,0.5,,web\n")
        assert events[0].features[0] is MISSING

    def test_empty_categorical_cell_is_missing(self):
        events = parse_csv("timestamp,score,amount,channel\n1000,0.5,1.0,\n")
        assert events[0].features[1] is MISSING

    def test_decreasing_timestamp_rejected(self):
        text = "timestamp,score,amount,channel\n5,0.5,1,web\n4,0.5,1,web\n"
        with pytest.raises(TimestampOrderError) as exc:
            parse_csv(text)
        assert exc.value.line_number == 3

    def test_equal_timestamps_allowed(self):
        text = "timestamp,score,amount,channel\n5,0.5,1,web\n5,0.6,1,pos\n"
        assert len(parse_csv(text)) == 2

    def test_extras_columns_carried(self):
        text = (
            "timestamp,score,amount,channel,extra.email\n"
            "1,0.5,1.0,web,a@b.c\n"
        )
        events = parse_csv(text)
        assert events[0].extras_dict() == {"email": "a@b.c"}

    def test_unknown_trailing_column_rejected(self):
        text = "timestamp,score,amount,channel,oops\n1,0.5,1,web,x\n"
        with pytest.raises(StreamError):
            parse_csv(text)

    def test_wrong_header_rejected(self):
        with pytest.raises(StreamError):
            parse_csv("time,score,amount,channel\n")

    def test_empty_file_rejected(self):
        with pytest.raises(StreamError, match="empty stream"):
            parse_csv("")

    def test_bad_numeric_cell_carries_line_number(self):
        text = "timestamp,score,amount,channel\n1,0.5,abc,web\n"
        with pytest.raises(StreamError) as exc:
            parse_csv(text)
        assert exc.value.line_number == 2

    def test_nul_cell_rejected_with_line_number(self):
        text = "timestamp,score,amount,channel\n1000,0.5,1.0,web\n1001,0.5,1.0,a\x00b\n"
        with pytest.raises(StreamError, match="NUL") as exc:
            parse_csv(text)
        assert exc.value.line_number == 3

    def test_csv_module_error_becomes_stream_error(self):
        oversized = "x" * 200_000  # past the csv module's field size limit
        text = f"timestamp,score,amount,channel\n1000,0.5,1.0,{oversized}\n"
        with pytest.raises(StreamError) as exc:
            parse_csv(text)
        assert exc.value.line_number == 2

    def test_stray_quote_is_rejected_not_merged(self):
        # A lenient reader would read the last cell as "xy".
        text = 'timestamp,score,amount,channel\n1000,0.5,1.0,web\n1001,0.5,1.0,"x"y\n'
        with pytest.raises(StreamError, match="malformed CSV") as exc:
            parse_csv(text)
        assert exc.value.line_number == 3

    def test_escaped_quotes_and_line_breaks_still_read(self):
        text = 'timestamp,score,amount,channel\n1000,0.5,1.0,"say ""hi""\nthere"\n'
        assert parse_csv(text) == [Event(1000, 0.5, (1.0, 'say "hi"\nthere'))]

    def test_error_names_the_line_a_row_starts_on(self):
        # write_csv_stream quotes a categorical holding line breaks, so a row
        # can span lines; the row after it starts on line 5, not record 3.
        multiline = Event(1, 0.5, (1.0, "a\nb\nc"))
        sink = io.StringIO()
        write_csv_stream([multiline], AMOUNT_CHANNEL, sink)
        assert parse_csv(sink.getvalue()) == [multiline]
        with pytest.raises(StreamError, match="bad numeric value") as exc:
            parse_csv(sink.getvalue() + "2,0.5,abc,web\n")
        assert exc.value.line_number == 5
        with pytest.raises(StreamError, match="malformed CSV") as exc:
            parse_csv(sink.getvalue() + '2,0.5,1.0,"x\n' + "x" * 200_000 + '"\n')
        assert exc.value.line_number == 5

    def test_reader_is_single_pass(self):
        text = "timestamp,score,amount,channel\n1,0.5,1,web\n2,0.5,2,pos\n"
        stream = read_csv_stream(io.StringIO(text), AMOUNT_CHANNEL)
        first = next(stream)
        rest = list(stream)
        assert first.timestamp == 1 and [e.timestamp for e in rest] == [2]


class TestJsonlReader:
    def test_plain_row(self):
        line = json.dumps(
            {"timestamp": 1000, "score": 0.97, "amount": 12.5, "channel": "web"}
        )
        events = list(read_jsonl_stream(io.StringIO(line + "\n"), AMOUNT_CHANNEL))
        assert events == [Event(1000, 0.97, (12.5, "web"))]

    def test_missing_key_is_missing_value(self):
        line = json.dumps({"timestamp": 1, "score": 0.5, "channel": "web"})
        events = list(read_jsonl_stream(io.StringIO(line + "\n"), AMOUNT_CHANNEL))
        assert events[0].features[0] is MISSING

    def test_nan_normalized_to_missing(self):
        events = list(
            read_jsonl_stream(
                io.StringIO('{"timestamp":1,"score":0.5,"amount":NaN,"channel":"web"}\n'),
                AMOUNT_CHANNEL,
            )
        )
        assert events[0].features[0] is MISSING

    def test_missing_score_rejected(self):
        with pytest.raises(StreamError):
            list(read_jsonl_stream(io.StringIO('{"timestamp": 1}\n'), AMOUNT_CHANNEL))

    def test_bool_score_rejected(self):
        line = json.dumps({"timestamp": 1, "score": True, "amount": 1.0, "channel": "web"})
        with pytest.raises(ScoreRangeError) as exc:
            list(read_jsonl_stream(io.StringIO(line + "\n"), AMOUNT_CHANNEL))
        assert exc.value.line_number == 1

    def test_extras_keys_carried(self):
        line = json.dumps(
            {"timestamp": 1, "score": 0.5, "amount": 2.0, "channel": "web",
             "extra.card": "1234"}
        )
        events = list(read_jsonl_stream(io.StringIO(line + "\n"), AMOUNT_CHANNEL))
        assert events[0].extras_dict() == {"card": "1234"}

    @pytest.mark.parametrize(
        "cells",
        [{"channel": "a\x00b"}, {"channel": "web", "extra.card": "12\x0034"},
         {"channel": "web", "extra.ca\x00rd": "1234"}],
        ids=["categorical", "extra_value", "extra_key"],
    )
    def test_nul_rejected_with_line_number(self, cells):
        good = json.dumps({"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": "web"})
        bad = json.dumps({"timestamp": 2, "score": 0.5, "amount": 1.0, **cells})
        with pytest.raises(StreamError, match="NUL") as exc:
            list(read_jsonl_stream(io.StringIO(f"{good}\n{bad}\n"), AMOUNT_CHANNEL))
        assert exc.value.line_number == 2

    def test_format_dispatch(self):
        line = json.dumps({"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": "c"})
        events = list(read_stream(io.StringIO(line + "\n"), AMOUNT_CHANNEL, "jsonl"))
        assert len(events) == 1
        with pytest.raises(ValueError):
            read_stream(io.StringIO(""), AMOUNT_CHANNEL, "parquet")


class TestTimestampParity:
    """CSV and JSONL accept and reject the same timestamps."""

    @staticmethod
    def read_jsonl(value):
        line = json.dumps({"timestamp": value, "score": 0.5, "amount": 1.0, "channel": "web"})
        return list(read_jsonl_stream(io.StringIO(line + "\n"), AMOUNT_CHANNEL))

    @staticmethod
    def read_csv(cell):
        return parse_csv(f"timestamp,score,amount,channel\n{cell},0.5,1.0,web\n")

    @pytest.mark.parametrize("json_value, csv_cell", [(12, "12"), ("12", "12")],
                             ids=["number", "string"])
    def test_integer_accepted_by_both(self, json_value, csv_cell):
        events = self.read_jsonl(json_value)
        assert events == self.read_csv(csv_cell)
        assert type(events[0].timestamp) is int and events[0].timestamp == 12

    @pytest.mark.parametrize(
        "json_value, csv_cell",
        [(1.7, "1.7"), (1.0, "1.0"), (True, "true"), (None, ""), ("1.7", "1.7")],
        ids=["fraction", "integral_float", "bool", "null", "fraction_string"],
    )
    def test_non_integer_rejected_by_both(self, json_value, csv_cell):
        with pytest.raises(StreamError, match="bad timestamp") as from_jsonl:
            self.read_jsonl(json_value)
        with pytest.raises(StreamError, match="bad timestamp") as from_csv:
            self.read_csv(csv_cell)
        assert from_jsonl.value.line_number == 1 and from_csv.value.line_number == 2


class TestJsonlObjectIsCsvRow:
    """A JSON-lines object is read as the CSV row holding the same values."""

    @staticmethod
    def read_jsonl(*lines):
        text = "".join(line + "\n" for line in lines)
        return list(read_jsonl_stream(io.StringIO(text), AMOUNT_CHANNEL))

    @pytest.mark.parametrize("line", ["5", '"text"', "[1, 2]"],
                             ids=["number", "string", "array"])
    def test_non_object_line_rejected_with_line_number(self, line):
        good = json.dumps({"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": "web"})
        with pytest.raises(StreamError, match="object") as exc:
            self.read_jsonl(good, line)
        assert exc.value.line_number == 2

    def test_integer_past_the_digit_limit_rejected_with_line_number(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit == 0:
            pytest.skip("this interpreter converts integers of any length")
        digits = "1" * (limit + 1)
        line = f'{{"timestamp": {digits}, "score": 0.5}}'
        with pytest.raises(StreamError, match="bad timestamp") as from_jsonl:
            self.read_jsonl(line)
        with pytest.raises(StreamError, match="bad timestamp") as from_csv:
            parse_csv(f"timestamp,score,amount,channel\n{digits},0.5,1.0,web\n")
        assert from_jsonl.value.line_number == 1 and from_csv.value.line_number == 2

    @pytest.mark.parametrize("value", [[1], {"a": 1}], ids=["array", "object"])
    @pytest.mark.parametrize("key", ["timestamp", "score", "amount", "channel", "extra.id"])
    def test_array_or_object_value_rejected_naming_the_key(self, key, value):
        doc = {"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": "web", key: value}
        with pytest.raises(StreamError, match=repr(key)) as exc:
            self.read_jsonl(json.dumps(doc))
        assert exc.value.line_number == 1

    def test_bool_numeric_value_rejected_as_csv_cell_true_is(self):
        line = json.dumps({"timestamp": 1, "score": 0.5, "amount": True, "channel": "web"})
        with pytest.raises(StreamError, match="bad numeric value") as from_jsonl:
            self.read_jsonl(line)
        with pytest.raises(StreamError, match="bad numeric value") as from_csv:
            parse_csv("timestamp,score,amount,channel\n1,0.5,true,web\n")
        assert from_jsonl.value.line_number == 1 and from_csv.value.line_number == 2

    def test_null_extra_is_the_empty_csv_cell(self):
        line = json.dumps({"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": "web",
                           "extra.id": None})
        events = self.read_jsonl(line)
        assert events[0].extras_dict() == {"id": ""}
        assert events == parse_csv("timestamp,score,amount,channel,extra.id\n1,0.5,1.0,web,\n")

    @pytest.mark.parametrize("number", ["1.50", "1e5", "NaN", "-0", "1" * 4301],
                             ids=["1.50", "1e5", "NaN", "-0", "4301_digits"])
    def test_number_is_its_json_text(self, number):
        line = (f'{{"timestamp": 1, "score": 0.5, "amount": 1.0, "channel": {number}, '
                f'"extra.id": {number}}}')
        events = self.read_jsonl(line)
        assert events[0].features[1] == number
        assert events[0].extras_dict() == {"id": number}
        assert events == parse_csv("timestamp,score,amount,channel,extra.id\n"
                                   f"1,0.5,1.0,{number},{number}\n")


class TestBlankLines:
    """A blank line, empty or only whitespace, is skipped in either format;
    later lines keep their numbers."""

    EVENTS = [Event(1, 0.5, (1.0, "web")), Event(2, 0.6, (2.0, "pos"))]

    @staticmethod
    def read(fmt, lines):
        """Read header-less data ``lines`` in ``fmt``: ``None`` is an empty
        line and a string a line holding just that text."""
        if fmt == "csv":
            cells = lambda line: ",".join(map(str, line))  # noqa: E731
            text = "timestamp,score,amount,channel\n"
        else:
            keys = ("timestamp", "score", "amount", "channel")
            cells = lambda line: json.dumps(dict(zip(keys, line)))  # noqa: E731
            text = ""
        text += "".join(
            ("" if line is None else line if isinstance(line, str) else cells(line)) + "\n"
            for line in lines)
        return list(read_stream(io.StringIO(text), AMOUNT_CHANNEL, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("blank_at", [1, 2], ids=["mid-stream", "at-end"])
    def test_blank_line_skipped(self, fmt, blank_at):
        lines = [(1, 0.5, 1.0, "web"), (2, 0.6, 2.0, "pos")]
        lines.insert(blank_at, None)
        assert self.read(fmt, lines) == self.EVENTS

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("blank", ["   ", "\t \t"], ids=["spaces", "tabs"])
    @pytest.mark.parametrize("blank_at", [1, 2], ids=["mid-stream", "at-end"])
    def test_whitespace_only_line_skipped(self, fmt, blank, blank_at):
        lines = [(1, 0.5, 1.0, "web"), (2, 0.6, 2.0, "pos")]
        lines.insert(blank_at, blank)
        assert self.read(fmt, lines) == self.EVENTS

    @pytest.mark.parametrize("fmt, line_number", [("csv", 5), ("jsonl", 4)])
    def test_later_bad_row_names_its_own_line(self, fmt, line_number):
        lines = [(1, 0.5, 1.0, "web"), None, None, (2, 0.6, "abc", "pos")]
        with pytest.raises(StreamError, match="bad numeric value") as exc:
            self.read(fmt, lines)
        assert exc.value.line_number == line_number

    @pytest.mark.parametrize("fmt, line_number", [("csv", 5), ("jsonl", 4)])
    def test_bad_row_after_whitespace_lines_names_its_own_line(self, fmt, line_number):
        lines = [(1, 0.5, 1.0, "web"), "  ", "\t", (2, 0.6, "abc", "pos")]
        with pytest.raises(StreamError, match="bad numeric value") as exc:
            self.read(fmt, lines)
        assert exc.value.line_number == line_number


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            schema_of(("a", NUMERIC), ("a", CATEGORICAL))

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema((FeatureSpec("a", "weird"),))

    @pytest.mark.parametrize("name", ["timestamp", "score", "model_score"])
    def test_reserved_names_rejected(self, name):
        # A feature named like a stream column or the model-score column
        # would read or display that column's values instead of its own.
        with pytest.raises(SchemaError, match="reserved"):
            FeatureSpec(name, NUMERIC)

    def test_json_round_trip(self):
        schema = AMOUNT_CHANNEL
        assert FeatureSchema.from_json(schema.to_json()) == schema

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema.from_json("{}")


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_undecodable_text_is_a_stream_error_without_a_line(format):
    # The text layer decodes ahead of the line being parsed, so the reader
    # cannot name the line that holds the bad byte.
    row = (b'{"timestamp": 1, "score": 0.5, "channel": "w\xffb"}\n' if format == "jsonl"
           else b"timestamp,score,amount,channel\n1,0.5,1.0,w\xffb\n")
    source = io.TextIOWrapper(io.BytesIO(row), encoding="utf-8", newline="")
    with pytest.raises(StreamError, match="not valid UTF-8") as exc:
        list(read_stream(source, AMOUNT_CHANNEL, format))
    assert exc.value.line_number is None


def test_normalize_numeric():
    assert normalize_numeric(3.5) == 3.5
    assert normalize_numeric(float("nan")) is MISSING
    assert normalize_numeric(float("inf")) is MISSING


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
# NUL is excluded because driftwatch refuses it on both the write and
# the read side with a StreamError; see the NUL tests below.
cell_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\r\n\x00"),
    min_size=1,
    max_size=8,
)


@st.composite
def event_streams(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.lists(st.integers(0, 3), min_size=count, max_size=count))
    timestamps = []
    now = draw(st.integers(0, 10**12))
    for step in steps:
        now += step
        timestamps.append(now)
    events = []
    for ts in timestamps:
        score = draw(st.floats(min_value=0.0, max_value=1.0, width=64))
        amount = draw(st.one_of(st.just(MISSING), finite_floats))
        channel = draw(st.one_of(st.just(MISSING), cell_text))
        events.append(Event(ts, score, (amount, channel)))
    return events


@given(event_streams())
@settings(max_examples=120, deadline=None)
def test_csv_round_trip_exact(events):
    sink = io.StringIO()
    write_csv_stream(events, AMOUNT_CHANNEL, sink)
    parsed = parse_csv(sink.getvalue())
    assert parsed == events


def test_nul_byte_rejected_with_clear_error():
    events = [Event(0, 0.5, (1.0, "a\x00b"))]
    with pytest.raises(StreamError, match="not representable as CSV"):
        write_csv_stream(events, AMOUNT_CHANNEL, io.StringIO())


def _json_value(value):
    return None if value is MISSING else value


@st.composite
def events_with_json_values(draw):
    """Events plus, per event, the JSON value written for its ``extra.id``."""
    timestamps = sorted(draw(st.lists(st.integers(-10**18, 10**18), min_size=1, max_size=6)))
    amounts = st.one_of(
        st.just(MISSING),
        finite_floats,
        st.sampled_from([1.7976931348623157e308, 1e300, 1e-300, 5e-324, -2.2250738585072014e-308]),
    )
    events, ids = [], []
    for ts in timestamps:
        score = draw(st.floats(min_value=0.0, max_value=1.0, width=64))
        features = (draw(amounts), draw(st.one_of(st.just(MISSING), cell_text)))
        extra_id = draw(st.one_of(st.none(), cell_text))
        events.append(Event(ts, score, features, (("id", extra_id or ""),)))
        ids.append(extra_id)
    return events, ids


@given(events_with_json_values())
@settings(max_examples=120, deadline=None)
def test_csv_and_jsonl_read_the_same_events(drawn):
    events, ids = drawn
    sink = io.StringIO()
    write_csv_stream(events, AMOUNT_CHANNEL, sink, extra_keys=("id",))
    lines = "".join(
        json.dumps({
            "timestamp": event.timestamp,
            "score": event.score,
            "amount": _json_value(event.features[0]),
            "channel": _json_value(event.features[1]),
            "extra.id": extra_id,
        }) + "\n"
        for event, extra_id in zip(events, ids)
    )
    from_jsonl = list(read_jsonl_stream(io.StringIO(lines), AMOUNT_CHANNEL))
    assert from_jsonl == parse_csv(sink.getvalue()) == events
