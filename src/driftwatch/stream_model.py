"""Event data model, feature schema, and stream readers and writers.

An event stream is a sequence of scored events: a timestamp in epoch
milliseconds, a model score in [0, 1], and a fixed-arity feature vector
described by a :class:`FeatureSchema`. Streams are read from CSV or
JSON-lines files, one event per row, in file order. A JSON-lines object
is read as the CSV row holding the same values, and one row function
turns a row from either format into an :class:`Event`.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO


class StreamError(Exception):
    """Malformed stream input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ScoreRangeError(StreamError):
    """Row rejected because its score is not a number in [0, 1]."""


class TimestampOrderError(StreamError):
    """Row rejected because its timestamp decreases."""


class SchemaError(Exception):
    """Invalid feature schema definition."""


class _Missing:
    """Singleton tag for an absent feature value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Missing"


MISSING = _Missing()

# A feature cell is a finite float (numeric), a string (categorical),
# or the MISSING singleton.
FeatureValue = float | str | _Missing

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_KINDS = (NUMERIC, CATEGORICAL)

# The column name of the model score in a report's training matrix.
MODEL_SCORE_COLUMN = "model_score"
# A feature under one of these names would shadow a stream column or the
# model score column: a JSON-lines ``score`` key would feed both.
RESERVED_NAMES = ("timestamp", "score", MODEL_SCORE_COLUMN)


@dataclass(frozen=True)
class FeatureSpec:
    """Name and kind of one stream feature column."""

    name: str
    kind: str

    def __post_init__(self):
        if not isinstance(self.name, str):
            # A CSV header is text: any other name can never match a column.
            raise SchemaError(f"feature name {self.name!r} is not a string")
        if self.name in RESERVED_NAMES:
            raise SchemaError(f"feature name {self.name!r} is reserved")
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations for a stream, fixed for its whole length."""

    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def arity(self) -> int:
        return len(self.features)

    def to_json(self) -> str:
        return json.dumps(
            {"features": [{"name": f.name, "kind": f.kind} for f in self.features]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        try:
            doc = json.loads(text)
            specs = tuple(FeatureSpec(f["name"], f["kind"]) for f in doc["features"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SchemaError(f"invalid schema document: {exc}") from exc
        return cls(specs)


@dataclass(frozen=True)
class Event:
    """One scored event.

    ``features`` follows the schema's column order. ``extras`` holds
    display-only key/value pairs (identifiers, emails) that never enter
    any model; they are carried through to reports verbatim.
    """

    timestamp: int
    score: float
    features: tuple[FeatureValue, ...]
    extras: tuple[tuple[str, str], ...] = ()

    def extras_dict(self) -> dict[str, str]:
        return dict(self.extras)


def normalize_numeric(value: float) -> FeatureValue:
    """Return the value as a float, or MISSING when not finite."""
    value = float(value)
    return value if math.isfinite(value) else MISSING


def check_timestamp(ts: int, previous: int | None, line_number: int | None = None) -> None:
    """Raise unless ``ts`` is an integer no smaller than ``previous``.

    A bool or a float (even ``1.0``) raises :class:`StreamError`, as the
    CSV cell ``1.0`` does; a decrease raises :class:`TimestampOrderError`.
    """
    # The exact-type test goes first: it is far cheaper than the ABC check,
    # and this runs twice per event.
    if type(ts) is not int and (isinstance(ts, bool) or not isinstance(ts, numbers.Integral)):
        raise StreamError(f"bad timestamp {ts!r}", line_number)
    if previous is not None and ts < previous:
        raise TimestampOrderError(f"timestamp {ts} decreases below {previous}", line_number)


def check_score(score: float, line_number: int | None = None) -> None:
    """Raise :class:`ScoreRangeError` unless the score is a finite real number in [0, 1].

    A bool, Python's or numpy's, is not a score, although Python would
    compare it as 0 or 1; nor is a string, None or a ``Decimal``.
    """
    # The exact-type test goes first: the ABC check is far slower, and this
    # runs twice per event.
    if type(score) is not float and (isinstance(score, bool)
                                     or not isinstance(score, numbers.Real)):
        raise ScoreRangeError(f"score {score!r} is not a real number", line_number)
    if not math.isfinite(score) or not 0.0 <= score <= 1.0:
        raise ScoreRangeError(f"score {score} outside [0, 1]", line_number)


def _feature_from_cell(cell: str, spec: FeatureSpec, line_number: int) -> FeatureValue:
    if cell == "":
        return MISSING
    if spec.kind == CATEGORICAL:
        return cell
    try:
        return normalize_numeric(float(cell))
    except ValueError as exc:
        raise StreamError(f"bad numeric value {cell!r} for {spec.name!r}", line_number) from exc


EXTRA_PREFIX = "extra."


def _event_from_row(row: list[str], extra_keys: list[str], schema: FeatureSchema,
                    line_number: int, previous_ts: int | None) -> Event:
    """Build the event one data row holds; both readers end here.

    ``row`` is laid out as a CSV data row: timestamp, score, one cell per
    schema feature, then one value per entry of ``extra_keys``. NUL is
    refused here, so every event read can be written as CSV.
    """
    arity = len(schema.features)
    width = 2 + arity + len(extra_keys)
    if len(row) != width:
        raise StreamError(f"expected {width} cells, got {len(row)}", line_number)
    if "\x00" in "".join(row) or (extra_keys and "\x00" in "".join(extra_keys)):
        raise StreamError("cell contains NUL", line_number)
    try:
        ts = int(row[0])
    except ValueError as exc:
        raise StreamError(f"bad timestamp {row[0]!r}", line_number) from exc
    check_timestamp(ts, previous_ts, line_number)
    try:
        score = float(row[1])
    except ValueError as exc:
        raise ScoreRangeError(f"score {row[1]!r} is not a number", line_number) from exc
    check_score(score, line_number)
    if width == 2:
        return Event(ts, score, ())
    features = tuple(
        _feature_from_cell(cell, spec, line_number)
        for cell, spec in zip(row[2:], schema.features)
    )
    return Event(ts, score, features, tuple(zip(extra_keys, row[2 + arity:])))


def _undecodable(exc: UnicodeDecodeError) -> StreamError:
    # No line number: the text layer decodes ahead of the line being read.
    bad = exc.object[exc.start:exc.end]
    return StreamError(f"stream is not valid UTF-8 ({exc.reason}: {bad!r})")


def _csv_rows(source: TextIO) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line_number, cells)`` per CSV row: the 1-based line the row starts on.

    A blank line is skipped, as in JSON lines. A quoted cell can hold line
    breaks, so a row can span lines. The reader is strict, so a stray quote
    such as ``"x"y`` is an error rather than being read as ``xy``; the csv
    module's errors and undecodable text become :class:`StreamError`.
    """
    reader = csv.reader(source, strict=True)
    line_number = 1
    try:
        for row in reader:
            if row:
                yield line_number, row
            line_number = reader.line_num + 1
    except csv.Error as exc:
        raise StreamError(f"malformed CSV: {exc}", line_number) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable(exc) from exc


def read_csv_stream(source: TextIO, schema: FeatureSchema) -> Iterator[Event]:
    """Yield events from a CSV stream, single pass, in file order.

    The header must be ``timestamp,score`` followed by the schema's
    feature names in order; any trailing ``extra.*`` columns are kept
    as display-only extras. A cell holding NUL is rejected.
    """
    rows = _csv_rows(source)
    try:
        _, header = next(rows)
    except StopIteration:
        raise StreamError("empty stream: missing header", 1) from None
    expected = ["timestamp", "score", *schema.names]
    if header[: len(expected)] != expected:
        raise StreamError(
            f"bad header: expected {expected} plus optional extra.* columns, got {header}", 1
        )
    extra_keys = []
    for column in header[len(expected):]:
        if not column.startswith(EXTRA_PREFIX):
            raise StreamError(f"unexpected column {column!r} after features", 1)
        extra_keys.append(column[len(EXTRA_PREFIX):])

    previous_ts = None
    for line_number, row in rows:
        event = _event_from_row(row, extra_keys, schema, line_number, previous_ts)
        previous_ts = event.timestamp
        yield event


def _json_cell(doc: dict, key: str, line_number: int) -> str:
    """The CSV cell that holds the same value as ``doc[key]``."""
    value = doc.get(key)
    if type(value) is str:
        return value
    if value is None:
        return ""
    if type(value) is float or type(value) is int:
        # The shortest round-trip text, as write_csv_stream writes a float;
        # for a finite number it is also the JSON text.
        return repr(value)
    if isinstance(value, (list, dict)):
        raise StreamError(f"{key!r} holds a JSON array or object", line_number)
    return json.dumps(value)  # true or false


def read_jsonl_stream(source: TextIO, schema: FeatureSchema) -> Iterator[Event]:
    """Yield events from a JSON-lines stream with the same keys as the CSV columns.

    Each object is read as the CSV row holding the same values: null or a
    missing key is an empty cell, a string is its text, and true, false
    and numbers are their JSON text. An array or object value, and a line
    that is not an object with ``timestamp`` and ``score`` keys, are
    refused.
    """
    columns = ("timestamp", "score", *schema.names)
    previous_ts = None
    try:
        for line_number, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:  # also an integer past the interpreter's digit limit
                raise StreamError(f"bad JSON: {exc}", line_number) from exc
            if not isinstance(doc, dict) or "timestamp" not in doc or "score" not in doc:
                raise StreamError("expected an object with timestamp and score keys",
                                  line_number)
            extra_columns = [key for key in doc if key.startswith(EXTRA_PREFIX)]
            row = [_json_cell(doc, key, line_number) for key in (*columns, *extra_columns)]
            extra_keys = [key[len(EXTRA_PREFIX):] for key in extra_columns]
            event = _event_from_row(row, extra_keys, schema, line_number, previous_ts)
            previous_ts = event.timestamp
            yield event
    except UnicodeDecodeError as exc:
        raise _undecodable(exc) from exc


def read_stream(source: TextIO, schema: FeatureSchema, format: str = "csv") -> Iterator[Event]:
    if format == "csv":
        return read_csv_stream(source, schema)
    if format == "jsonl":
        return read_jsonl_stream(source, schema)
    raise ValueError(f"unknown stream format {format!r}")


def _cell(value: FeatureValue) -> str:
    if value is MISSING:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv_stream(
    events: Iterable[Event],
    schema: FeatureSchema,
    sink: TextIO,
    extra_keys: tuple[str, ...] = (),
) -> int:
    """Write events as CSV, returning the number of rows written.

    Floats are written with repr so a read-back round-trips exactly.
    """
    writer = csv.writer(sink, lineterminator="\n")
    header = ["timestamp", "score", *schema.names]
    header += [EXTRA_PREFIX + key for key in extra_keys]
    writer.writerow(header)
    count = 0
    for event in events:
        cells = [_cell(v) for v in event.features]
        if extra_keys:
            extras = event.extras_dict()
            cells += [extras.get(key, "") for key in extra_keys]
        # The reader refuses NUL, so a value holding one cannot exist in
        # this format; whether the csv module would write it depends on
        # the Python version.
        if "\x00" in "".join(cells):
            raise StreamError(f"event {count} not representable as CSV: a cell contains NUL")
        writer.writerow([str(event.timestamp), repr(event.score), *cells])
        count += 1
    return count
