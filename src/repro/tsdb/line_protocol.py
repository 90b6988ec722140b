"""Influx line protocol: ``measurement,tag=v field=1.5 1465839830100400200``.

Implemented for interoperability (dumping a run to a file a real
Influx instance could ingest) and as the TSDB's text serialization in
the CLI. Escaping rules follow the Influx reference: commas, spaces
and equals signs are backslash-escaped in measurement names, tag keys,
tag values, and field keys; integers carry an ``i`` suffix.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, List, Tuple

from repro.tsdb.point import Point


class LineProtocolError(ValueError):
    """Raised when a line fails to parse."""


_ESCAPES = [("\\", "\\\\"), (",", "\\,"), (" ", "\\ "), ("=", "\\=")]


@lru_cache(maxsize=4096)
def _escape(text: str) -> str:
    # Memoised: a point escapes a dozen strings and a run draws them
    # from a few hundred measurement, tag and field names.
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


def _unescape_split(text: str, separators: str) -> List[str]:
    """Split on unescaped separators, then strip the backslashes."""
    parts: List[str] = []
    current: List[str] = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text):
            current.append(text[i + 1])
            i += 2
            continue
        if char in separators:
            parts.append("".join(current))
            current = []
            i += 1
            continue
        current.append(char)
        i += 1
    parts.append("".join(current))
    return parts


def _split_top(text: str, separator: str) -> List[str]:
    """Split on unescaped *separator*, keeping escapes intact."""
    parts: List[str] = []
    current: List[str] = []
    i = 0
    while i < len(text):
        char = text[i]
        if char == "\\" and i + 1 < len(text):
            current.append(char)
            current.append(text[i + 1])
            i += 2
            continue
        if char == separator:
            parts.append("".join(current))
            current = []
            i += 1
            continue
        current.append(char)
        i += 1
    parts.append("".join(current))
    return parts


@lru_cache(maxsize=8192)
def _head(series_key) -> str:
    # A run writes many points to few series (8,767 to 1,332 on the
    # handshake benchmark): the escaped head is worked out per series.
    measurement, tags = series_key
    return _escape(measurement) + "".join(
        [f",{_escape(key)}={_escape(value)}" for key, value in tags]
    )


@lru_cache(maxsize=8192)
def _field_prefixes(names: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
    # Likewise per field-name tuple: (name, escaped "name=") in line order.
    return tuple((name, f"{_escape(name)}=") for name in sorted(names))


def format_point(point: Point) -> str:
    """Serialize one point to a line."""
    fields = point.fields
    field_parts = []
    for key, prefix in _field_prefixes(tuple(fields)):
        value = fields[key]
        if isinstance(value, int):
            field_parts.append(f"{prefix}{value}i")
        else:
            field_parts.append(f"{prefix}{value!r}")
    return f"{_head(point.series_key())} {','.join(field_parts)} {point.timestamp_ns}"


# With no escaped backslash in a line, a backslash always escapes the
# character after it, so "unescaped" is "not preceded by a backslash".
_UNESCAPED = {sep: re.compile(r"(?<!\\)" + sep) for sep in " ,="}
_ESCAPE_PAIR = re.compile(r"\\(.)", re.DOTALL)


def _split(text: str, separator: str) -> List[str]:
    if "\\" not in text:
        return text.split(separator)
    return _UNESCAPED[separator].split(text)


def _unescape(text: str) -> str:
    return _ESCAPE_PAIR.sub(r"\1", text) if "\\" in text else text


def _parse_split(line: str) -> Point:
    """:func:`_parse_walk` for a well-formed line without ``\\\\``:
    C-level splits where the walk takes up to three Python passes per
    character. Raises ``ValueError``/``IndexError`` on anything else."""
    sections = [s for s in _split(line, " ") if s]
    if len(sections) > 3:
        raise ValueError(line)
    head_parts = _split(sections[0], ",")
    tags = {}
    for tag_text in head_parts[1:]:
        key, value = _split(tag_text, "=")
        tags[_unescape(key)] = _unescape(value)
    fields = {}
    for field_text in _split(sections[1], ","):
        key, raw_value = _split(field_text, "=")
        fields[_unescape(key)] = (
            int(raw_value[:-1]) if raw_value.endswith("i") else float(raw_value)
        )
    return Point(
        measurement=_unescape(head_parts[0]),
        timestamp_ns=int(sections[2]) if len(sections) == 3 else 0,
        tags=tags,
        fields=fields,
    )


def parse_line(line: str) -> Point:
    """Parse one line back into a :class:`Point`."""
    line = line.strip()
    if not line or line.startswith("#"):
        raise LineProtocolError("empty or comment line")
    if "\\\\" not in line:
        try:
            return _parse_split(line)
        except (ValueError, IndexError):
            pass  # malformed: the walk says how
    return _parse_walk(line)


def _parse_walk(line: str) -> Point:
    """The reference parse: one character at a time, any escaping."""
    sections = _split_top(line, " ")
    sections = [s for s in sections if s]
    if len(sections) < 2:
        raise LineProtocolError(f"need measurement and fields: {line!r}")
    if len(sections) > 3:
        raise LineProtocolError(f"too many sections: {line!r}")

    head_parts = _split_top(sections[0], ",")
    measurement = _unescape_split(head_parts[0], "")[0]
    tags = {}
    for tag_text in head_parts[1:]:
        pieces = _unescape_split(tag_text, "=")
        if len(pieces) != 2:
            raise LineProtocolError(f"bad tag {tag_text!r}")
        tags[pieces[0]] = pieces[1]

    fields = {}
    for field_text in _split_top(sections[1], ","):
        pieces = _split_top(field_text, "=")
        if len(pieces) != 2:
            raise LineProtocolError(f"bad field {field_text!r}")
        key = _unescape_split(pieces[0], "")[0]
        raw_value = pieces[1]
        try:
            if raw_value.endswith("i"):
                fields[key] = int(raw_value[:-1])
            else:
                fields[key] = float(raw_value)
        except ValueError as exc:
            raise LineProtocolError(f"bad field value {raw_value!r}") from exc

    if len(sections) == 3:
        try:
            timestamp_ns = int(sections[2])
        except ValueError as exc:
            raise LineProtocolError(f"bad timestamp {sections[2]!r}") from exc
    else:
        timestamp_ns = 0

    return Point(
        measurement=measurement, timestamp_ns=timestamp_ns, tags=tags, fields=fields
    )


def parse_lines(lines: Iterable[str]) -> Iterator[Point]:
    """Parse many lines, skipping blanks and ``#`` comments."""
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_line(stripped)
