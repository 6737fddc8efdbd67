"""Evidence encoders.

Structured log records (field maps) become observation-sequence source
text, one observation per record, with hardware addresses, hostnames,
and timestamps normalized to canonical forms on the way in.  A small
line-oriented schema maps record fields onto context dimensions and
types; the per-service encodings (switch log, DHCP, netflow, ARP, port
scan) are shipped as schema presets.  A record field that refuses to
normalize (a non-finite real too) does not abort the encoding: the
offending value is kept raw and that observation's credibility weight
is downgraded instead.  The program is written as text, each value by
values.to_source, and neither parsed nor analyzed: its names are unique
by construction.  Tests check that the text prints back unchanged from
its parse and that it analyzes.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .values import FlucidError, ValidationError, to_source

DEFAULT_PARTIAL_W = 0.5

FIELD_TYPES = ("text", "int", "real", "mac", "timestamp", "hostname")


class EncodeError(FlucidError):
    pass


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------

_MAC_SEP = re.compile(r"^([0-9a-fA-F]{1,2})([:-])"
                      r"([0-9a-fA-F]{1,2})\2([0-9a-fA-F]{1,2})\2"
                      r"([0-9a-fA-F]{1,2})\2([0-9a-fA-F]{1,2})\2"
                      r"([0-9a-fA-F]{1,2})$")
_MAC_PACKED = re.compile(r"^[0-9a-fA-F]{12}$|^([0-9a-fA-F]{4}\.){2}"
                         r"[0-9a-fA-F]{4}$")


def normalize_mac(s: str) -> str:
    """Canonical hardware address: lowercase, colon-separated, six
    zero-padded octets.  Accepts raw 12-hex, colon or dash separated
    (leading zeros optional), and four-hex dotted triplet forms."""
    raw = s.strip()
    m = _MAC_SEP.match(raw)
    if m:
        octets = m.group(1, 3, 4, 5, 6, 7)      # 2 is the separator
    elif _MAC_PACKED.match(raw):
        digits = raw.replace(".", "")
        octets = tuple(digits[i:i + 2] for i in range(0, 12, 2))
    else:
        raise EncodeError("unrecognized hardware address: %r" % s)
    return ":".join(o.lower().zfill(2) for o in octets)


def normalize_hostname(s: str) -> str:
    """Lowercase, trailing-dot-free host name."""
    raw = s.strip().rstrip(".").lower()
    if not re.fullmatch(r"[a-z0-9._-]+", raw):
        raise EncodeError("unrecognized host name: %r" % s)
    return raw


_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_WDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

# civil abbreviations appear in logs without IANA names; fixed offsets
_ZONE_OFFSETS = {
    "UTC": 0, "GMT": 0, "Z": 0,
    "EST": -5, "EDT": -4, "CST": -6, "CDT": -5,
    "MST": -7, "MDT": -6, "PST": -8, "PDT": -7,
    "CET": 1, "CEST": 2, "EET": 2, "EEST": 3,
}

_TS_SYSLOG = re.compile(
    r"^([A-Z][a-z]{2})\s+(\d{1,2})\s+(\d{2}):(\d{2}):(\d{2})$")
_TS_CANONICAL = re.compile(
    r"^[A-Z][a-z]{2}\s+([A-Z][a-z]{2})\s+(\d{1,2})\s+"
    r"(\d{2}):(\d{2}):(\d{2})\s+(\d{4})$")
_TS_ISO = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})[ T](\d{2}):(\d{2})(?::(\d{2}))?"
    r"(?:\.(\d{1,6}))?(?:\s+(\S+))?$")
_TS_COMPACT = re.compile(r"^(\d{4})(\d{2})(\d{2})(\d{2})(\d{2})$")
_TS_EPOCH = re.compile(r"^-?\d{1,18}$")


def _resolve_zone(name: Optional[str]):
    if name is None:
        name = "UTC"
    if not isinstance(name, str):
        raise EncodeError("a time zone is named by a string, not %r" % (name,))
    offset = _ZONE_OFFSETS.get(name.upper() if len(name) <= 4 else name)
    if offset is not None:
        return timezone(timedelta(hours=offset), name)
    try:
        from zoneinfo import ZoneInfo
        return ZoneInfo(name)
    except Exception:
        raise EncodeError("unknown time zone: %r" % name)


def render_timestamp(epoch: int, tz: Optional[str] = None) -> str:
    """Canonical human form for an epoch second in the given zone."""
    return _render(epoch, _resolve_zone(tz))


def _render(epoch: int, zone) -> str:
    try:
        dt = datetime.fromtimestamp(epoch, zone)
    except (ValueError, OverflowError, OSError):
        raise EncodeError("epoch %r is beyond the calendar" % epoch) from None
    return "%s %s %d %02d:%02d:%02d %d" % (
        _WDAYS[dt.weekday()], _MONTHS[dt.month - 1], dt.day,
        dt.hour, dt.minute, dt.second, dt.year)


def normalize_timestamp(s: Any, reference_year: Optional[int] = None,
                        tz: Optional[str] = None) -> Tuple[str, int]:
    """(canonical text, epoch seconds) for a textual timestamp.

    Accepted forms: syslog "Mon DD HH:MM:SS" (year supplied by
    reference_year, 1970 when absent), ISO "YYYY-MM-DD HH:MM[:SS]
    [ZONE]" with optional fractional seconds, compact "YYYYMMDDHHMM",
    a bare epoch integer, and this function's own canonical output.
    Zoneless forms are interpreted in tz (UTC when None); the canonical
    text is always rendered there.
    """
    zone = _resolve_zone(tz)
    if isinstance(s, int) and not isinstance(s, bool):
        return _render(s, zone), s
    raw = str(s).strip()

    def done(dt: datetime) -> Tuple[str, int]:
        epoch = int(dt.timestamp())
        return _render(epoch, zone), epoch

    try:
        m = _TS_SYSLOG.match(raw)
        if m:
            year = reference_year if reference_year is not None else 1970
            return done(datetime(
                year, _MONTHS.index(m.group(1)) + 1, int(m.group(2)),
                int(m.group(3)), int(m.group(4)), int(m.group(5)),
                tzinfo=zone))

        m = _TS_CANONICAL.match(raw)
        if m:
            return done(datetime(
                int(m.group(6)), _MONTHS.index(m.group(1)) + 1,
                int(m.group(2)), int(m.group(3)), int(m.group(4)),
                int(m.group(5)), tzinfo=zone))

        m = _TS_ISO.match(raw)
        if m:
            seconds = int(m.group(6)) if m.group(6) else 0
            z = _resolve_zone(m.group(8)) if m.group(8) else zone
            return done(datetime(
                int(m.group(1)), int(m.group(2)), int(m.group(3)),
                int(m.group(4)), int(m.group(5)), seconds, tzinfo=z))

        # twelve digits read as a calendar stamp when the fields are in
        # range, as a raw epoch second otherwise
        m = _TS_COMPACT.match(raw)
        if m:
            return done(datetime(
                int(m.group(1)), int(m.group(2)), int(m.group(3)),
                int(m.group(4)), int(m.group(5)), tzinfo=zone))
    except ValueError:      # an unknown month or a field out of range
        pass
    if _TS_EPOCH.match(raw):
        return _render(int(raw), zone), int(raw)

    raise EncodeError("unrecognized timestamp: %r" % (s,))


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    field: str
    dimension: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in FIELD_TYPES:
            raise EncodeError("unknown type %r (one of %s)"
                              % (self.type, "/".join(FIELD_TYPES)))
        _check_name(self.dimension, "the dimension of field %r" % self.field)


@dataclass(frozen=True)
class Schema:
    fields: Tuple[FieldSpec, ...]
    partial_w: float = DEFAULT_PARTIAL_W

    def __post_init__(self) -> None:
        if type(self.partial_w) is bool or not 0 <= self.partial_w <= 1:
            raise EncodeError("partial credibility must be in [0, 1]")


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SCHEMA_FIELD = re.compile(
    r"^field\s+(\S+)\s*->\s*dimension\s+(\S+)\s+type\s+(\S+)$")
_SCHEMA_PARTIAL = re.compile(r"^partial\s+([0-9]+\.?[0-9]*|\.[0-9]+)$")


def _check_name(word: str, what: str, reserved=frozenset()) -> None:
    if not _IDENT.fullmatch(word) or word in reserved:
        raise EncodeError("%r is not usable as %s" % (word, what))


def parse_schema(text: str) -> Schema:
    """Line-oriented schema: `field <name> -> dimension <name> type
    <text|int|real|mac|timestamp|hostname>`, optional `partial <w>`."""
    fields: List[FieldSpec] = []
    partial = DEFAULT_PARTIAL_W
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("//")[0].split("#")[0].strip()
        field_line = _SCHEMA_FIELD.match(body)
        partial_line = _SCHEMA_PARTIAL.match(body)
        try:
            if field_line:
                if any(f.field == field_line[1] for f in fields):
                    raise EncodeError("field %r declared twice" % field_line[1])
                fields.append(FieldSpec(*field_line.groups()))
            elif partial_line:
                partial = float(partial_line[1])
            elif body:
                raise EncodeError("cannot read %r" % body)
        except EncodeError as exc:
            raise EncodeError("schema line %d: %s" % (lineno, exc)) from None
    if not fields:
        raise EncodeError("schema declares no fields")
    return Schema(tuple(fields), partial)


PRESETS: Dict[str, Schema] = {
    "arp": parse_schema(
        "field ipaddr -> dimension ipaddr type text\n"
        "field mac -> dimension mac type mac\n"),
    "switchlog": parse_schema(
        "field ts -> dimension ts type timestamp\n"
        "field port -> dimension port type text\n"
        "field mac -> dimension mac type mac\n"
        "field message -> dimension message type text\n"),
    "dhcp": parse_schema(
        "field ts -> dimension ts type timestamp\n"
        "field ipaddr -> dimension ipaddr type text\n"
        "field mac -> dimension mac type mac\n"
        "field hostname -> dimension hostname type hostname\n"),
    "netflow": parse_schema(
        "field ts -> dimension ts type timestamp\n"
        "field srcip -> dimension srcip type text\n"
        "field dstip -> dimension dstip type text\n"
        "field srcport -> dimension srcport type int\n"
        "field dstport -> dimension dstport type int\n"
        "field proto -> dimension proto type text\n"
        "field bytes -> dimension bytes type int\n"),
    "scan": parse_schema(
        "field host -> dimension host type hostname\n"
        "field port -> dimension port type int\n"
        "field state -> dimension state type text\n"
        "field service -> dimension service type text\n"),
}


def load_schema(name_or_path: str) -> Schema:
    """A preset name, or a path to a schema file."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    if os.path.exists(name_or_path):
        with open(name_or_path, "r", encoding="utf-8") as fh:
            return parse_schema(fh.read())
    raise EncodeError(
        "no schema preset or file named %r (presets: %s)"
        % (name_or_path, ", ".join(sorted(PRESETS))))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _normalize_field(spec: FieldSpec, value: Any,
                     reference_year: Optional[int], tz: Optional[str]):
    """(tag value, epoch-or-None, ok?) for one field of one record; a
    value that refuses to normalize comes back raw and not ok."""
    if spec.type == "text":
        return str(value), None, True
    try:
        if spec.type == "mac":
            return normalize_mac(str(value)), None, True
        if spec.type == "hostname":
            return normalize_hostname(str(value)), None, True
        if spec.type == "int":
            number = int(str(value).strip(), 0)
            str(number)     # raises when the decimal literal would be too long
            return number, None, True
        if spec.type == "real":
            real = float(str(value).strip())
            if math.isfinite(real):         # inf and nan have no literal
                return real, None, True
        else:
            text, epoch = normalize_timestamp(value, reference_year, tz)
            return text, epoch, True
    except (EncodeError, ValueError):
        pass
    return str(value), None, False


def encode_log(lines: Iterable[Dict[str, Any]], name: str, source: str,
               schema: Schema = PRESETS["arp"], *,
               reference_year: Optional[int] = None,
               tz: Optional[str] = None,
               now: Optional[int] = None) -> str:
    """Observation-sequence source text for the given records.

    One observation per record: the property is the normalized
    dimension:tag pair set, durations (1, 0), weight 1.0 unless a field
    failed to normalize (then the schema's partial credibility), and the
    timestamp slot filled from the first timestamp-typed field.  Zero
    records encode as a single no-observation.  The result is a complete
    program whose head demands the sequence, with the encoding time in its
    header comment only when now is given.  Every value is written by
    to_source, so one with no source form raises EncodeError naming its
    record and field; the text is never parsed or analyzed, the names
    being unique by construction (the observations <name>_o_<k>, the
    sequence <name>).  tests/test_encoders.py checks that the text parses,
    prints back unchanged and analyzes.
    """
    from .syntax.lexer import KEYWORDS     # loaded on first use
    _check_name(name, "a sequence name", KEYWORDS)
    for spec in schema.fields:
        _check_name(spec.dimension, "the dimension of field %r" % spec.field,
                    KEYWORDS)
    if "\n" in source:
        raise EncodeError("the source %r spans lines" % source)
    for what, value in (("now", now), ("reference_year", reference_year)):
        if value is not None and (type(value) is bool or
                                  not isinstance(value, int)):
            raise EncodeError("%s must be an integer, not %r" % (what, value))
    _resolve_zone(tz)               # an unknown zone fails with no field too
    obs: List[str] = []
    epochs: List[Optional[int]] = []
    for pos, record in enumerate(lines, 1):
        if not isinstance(record, Mapping):
            raise EncodeError("record %d is not a mapping" % pos)
        pairs: List[str] = []
        weight = 1.0
        when: Optional[int] = None
        for spec in schema.fields:
            if spec.field not in record:
                continue
            try:
                tag, epoch, ok = _normalize_field(
                    spec, record[spec.field], reference_year, tz)
                if epoch is not None and when is None:
                    when = epoch    # the t slot carries it, not the pair set
                else:
                    pairs.append("%s:%s" % (spec.dimension, to_source(tag)))
            # a newline has no source form; str() of a huge int raises too
            except (ValueError, ValidationError) as exc:
                raise EncodeError("record %d, field %r: %s"
                                  % (pos, spec.field, exc)) from None
            if not ok:
                weight = schema.partial_w
        epochs.append(when)
        value = "$"                 # no pairs and no time
        if pairs or when is not None:
            value = "([%s], 1, 0, %s%s)" % (
                ", ".join(pairs), to_source(weight),
                "" if when is None else ", " + to_source(when))
        obs.append("  observation %s_o_%d = %s;" % (name, pos, value))
    if not obs:
        obs.append("  observation %s_o_1 = $;" % name)
    members = ", ".join("%s_o_%d" % (name, k) for k in range(1, len(obs) + 1))
    stamp = "" if now is None else "%s (%d) " % (render_timestamp(now, tz), now)
    header = ["  // encoded %sfrom %s" % (stamp, source)]
    if None not in epochs and any(a > b for a, b in zip(epochs, epochs[1:])):
        header.append("  // warning: timestamps are not non-decreasing")
    return "\n".join([name, "where", *header, *obs,
                      "  observation sequence %s = {%s};" % (name, members),
                      "end", ""])


def encode_to_files(lines: Iterable[Dict[str, Any]], case: str,
                    source: str, schema: Schema, out_dir: str = ".",
                    **kw) -> Tuple[str, str]:
    """Write `<case>.<source>.ctx` plus its checksum sidecar; returns
    both paths."""
    if not _IDENT.fullmatch(case):
        raise EncodeError("%r is not usable as a case tag" % case)
    text = encode_log(lines, source, "%s/%s" % (case, source), schema, **kw)
    ctx_path = os.path.join(out_dir, "%s.%s.ctx" % (case, source))
    with open(ctx_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    sha_path = ctx_path + ".sha256"
    with open(sha_path, "w", encoding="utf-8") as fh:
        fh.write("%s  %s\n" % (digest, os.path.basename(ctx_path)))
    return ctx_path, sha_path
