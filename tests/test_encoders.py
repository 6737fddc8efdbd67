"""Evidence encoders: normalizers, schemas, and encoded programs.

encode_log writes its program as text without parsing it back; the
tests here are what hold it to its own front end: a golden text pins
its layout, the printer must give the text back from its parse (the
`//` lines aside), and evaluating it must give one observation per
record.
"""

import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from flucid import encoders
from flucid.encoders import (
    PRESETS,
    EncodeError,
    _FieldSpec,
    _normalize_hostname,
    _normalize_mac,
    _Schema,
    encode_log,
    encode_to_files,
    normalize_timestamp,
    parse_schema,
)
from flucid.evaluator import evaluate
from flucid.semantics import analyze
from flucid.syntax import parse, pretty_print
from flucid.syntax.lexer import KEYWORDS
from flucid.values import FlucidError


def observations(text):
    return evaluate(text).observations


def assert_prints_back(text):
    """The printer gives the encoded text back from its parse, but for
    the comment lines, which the parser drops."""
    code = [line for line in text.split("\n") if not line.startswith("  //")]
    assert pretty_print(parse(text)) == "\n".join(code)


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("raw", [
    "AABBCCDDEEFF",                 # raw 12-hex
    "aa:bb:cc:dd:ee:ff",            # colon separated
    "AA-BB-CC-DD-EE-FF",            # dash separated
    "aabb.ccdd.eeff",               # dotted triplets
    "  aa:bb:cc:dd:ee:ff\n",
])
def test_mac_forms(raw):
    assert _normalize_mac(raw) == "aa:bb:cc:dd:ee:ff"


def test_mac_octets_are_zero_padded():
    assert _normalize_mac("a:b:c:d:e:f") == "0a:0b:0c:0d:0e:0f"
    assert _normalize_mac("0-1-2-3-4-5") == "00:01:02:03:04:05"


@pytest.mark.parametrize("raw", [
    "zz:00:11:22:33:44", "aa:bb:cc:dd:ee", "aa:bb-cc:dd:ee:ff",
    "aabbccddeeff00", "aab.bccd.deef", "",
])
def test_mac_rejects(raw):
    with pytest.raises(EncodeError):
        _normalize_mac(raw)


def test_hostname_is_lowercase_without_trailing_dot():
    assert _normalize_hostname(" Host-1.Corp.Example. ") == "host-1.corp.example"


@pytest.mark.parametrize("raw", ["bad host!", "", ".", "a\n.", "ho$t"])
def test_hostname_rejects(raw):
    with pytest.raises(EncodeError):
        _normalize_hostname(raw)


JAN2 = ("Thu Jan 2 03:04:05 2020", 1577934245)


@pytest.mark.parametrize("raw, year, want", [
    ("Jan  2 03:04:05", 2020, JAN2),                          # syslog
    ("Jan  2 03:04:05", None, ("Fri Jan 2 03:04:05 1970", 97445)),
    ("Thu Jan 2 03:04:05 2020", None, JAN2),                  # canonical
    ("2020-01-02 03:04:05", None, JAN2),                      # ISO
    ("2020-01-02T03:04", None, ("Thu Jan 2 03:04:00 2020", 1577934240)),
    ("2020-01-02 03:04:05.123456", None, JAN2),
    ("202001020304", None, ("Thu Jan 2 03:04:00 2020", 1577934240)),  # compact
    ("1577934245", None, JAN2),                               # epoch text
    (1577934245, None, JAN2),                                 # epoch int
    ("-86400", None, ("Wed Dec 31 00:00:00 1969", -86400)),
])
def test_timestamp_forms(raw, year, want):
    assert normalize_timestamp(raw, year, tz="UTC") == want


def test_timestamp_zones():
    # a zone written in the stamp, a civil abbreviation, an IANA name
    assert normalize_timestamp("2020-01-02 03:04:05 PST", tz="UTC") == (
        "Thu Jan 2 11:04:05 2020", 1577963045)
    assert normalize_timestamp("2020-01-02 03:04:05 Europe/Paris",
                               tz="UTC")[1] == 1577930645
    # zoneless stamps read in tz, and the text is rendered there
    assert normalize_timestamp("2020-01-02 03:04:05", tz="EST") == (
        "Thu Jan 2 03:04:05 2020", 1577952245)
    assert normalize_timestamp(0, tz="Asia/Tokyo")[0] == \
        "Thu Jan 1 09:00:00 1970"


@pytest.mark.parametrize("raw", [
    "Jan  2 03:04:05", "202001020304", "1577934245", 1577934245])
def test_timestamp_resolves_its_zone_once(monkeypatch, raw):
    calls = []
    resolve = encoders._resolve_zone
    monkeypatch.setattr(encoders, "_resolve_zone",
                        lambda name: calls.append(name) or resolve(name))
    normalize_timestamp(raw, 2020, tz="UTC")
    assert calls == ["UTC"]


@pytest.mark.parametrize("raw, tz", [
    ("not a time", "UTC"), ("Foo  2 03:04:05", "UTC"),
    ("2020-13-02 03:04:05", "UTC"), ("2020-01-02 03:04:05 Nowhere/Else", "UTC"),
    (0, "Nowhere/Else"), (True, "UTC"), ("999999999999", "UTC"),
    (10 ** 18, "UTC"),
])
def test_timestamp_rejects(raw, tz):
    with pytest.raises(EncodeError):
        normalize_timestamp(raw, tz=tz)


@pytest.mark.parametrize("year", ["x", True, 2020.0, [2020]])
def test_timestamp_rejects_a_reference_year_that_is_not_an_integer(year):
    for raw in ("Jan  2 03:04:05", 1577934245):
        with pytest.raises(EncodeError, match="reference_year must be an "
                                              "integer"):
            normalize_timestamp(raw, reference_year=year)


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def test_parse_schema_reads_fields_partial_and_comments():
    schema = parse_schema("// a comment\n"
                          "field ip -> dimension ipaddr type text  # note\n"
                          "\n"
                          "partial 0.25\n")
    assert schema == _Schema((_FieldSpec("ip", "ipaddr", "text"),), 0.25)


@pytest.mark.parametrize("text, message", [
    ("field a -> dimension a type blob", "schema line 1: unknown type 'blob'"),
    ("field a -> dimension 1a type text", "schema line 1: '1a' is not usable"),
    ("field a -> dimension a type text\nfield a -> dimension b type int",
     "schema line 2: field 'a' declared twice"),
    ("field a -> dimension a type text\npartial 1.5",
     "partial credibility must be in [0, 1]"),
    ("field a -> dimension a type text\npartial 1.2.3",
     "schema line 2: cannot read 'partial 1.2.3'"),
    ("fields a", "schema line 1: cannot read"),
    ("// nothing\n", "schema declares no fields"),
])
def test_parse_schema_errors(text, message):
    with pytest.raises(EncodeError) as err:
        parse_schema(text)
    assert str(err.value).startswith(message)


def test_load_schema_presets_and_unknown_names():
    assert encoders.load_schema("dhcp") is PRESETS["dhcp"]
    with pytest.raises(EncodeError):
        encoders.load_schema("no-such-preset-or-file")


def test_load_schema_reports_a_file_it_cannot_read(tmp_path):
    latin = tmp_path / "latin.schema"
    latin.write_bytes(b"field caf\xe9 -> dimension cafe type text\n")
    for path in (tmp_path, latin):
        with pytest.raises(EncodeError, match="cannot read schema file"):
            encoders.load_schema(str(path))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def test_partial_weight_downgrade_keeps_the_raw_value():
    text = encode_log([{"ipaddr": "10.0.0.1", "mac": "aabbccddeeff"},
                       {"ipaddr": "10.0.0.2", "mac": "zz"}],
                      "arp", "test", PRESETS["arp"])
    good, bad = observations(text)
    assert good.w == 1.0 and bad.w == PRESETS["arp"].partial_w
    assert '[ipaddr:"10.0.0.2", mac:"zz"]' in text


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400", "Infinity"])
def test_non_finite_real_is_malformed_not_fatal(raw):
    schema = parse_schema("field v -> dimension v type real\npartial 0.3")
    text = encode_log([{"v": raw}, {"v": "-2.5"}], "log", "test", schema)
    first, second = observations(text)
    assert (first.w, second.w) == (0.3, 1.0)
    assert '[v:"%s"]' % raw in text and "[v:-2.5]" in text


def test_timestamp_fills_the_t_slot_and_order_is_checked():
    text = encode_log([{"ts": 20}, {"ts": 10}, {"ts": "bad"}], "log", "test",
                      PRESETS["switchlog"])
    assert [o.t for o in observations(text)] == [20, 10, None]
    assert "warning" not in text            # one stamp is missing
    text = encode_log([{"ts": 20}, {"ts": 10}], "log", "test",
                      PRESETS["switchlog"])
    assert "// warning: timestamps are not non-decreasing" in text


def test_epoch_beyond_the_calendar_is_malformed():
    text = encode_log([{"ts": "999999999999999999"}, {"ts": 10 ** 17}],
                      "log", "test", PRESETS["switchlog"])
    assert [(o.w, o.t) for o in observations(text)] == [(0.5, None)] * 2


def test_a_timestamp_of_another_type_is_malformed():
    text = encode_log([{"ts": (1, 2)}, {"ts": [3]}], "log", "test",
                      PRESETS["switchlog"])
    assert [(o.w, o.t) for o in observations(text)] == [(0.5, None)] * 2


@pytest.mark.parametrize("kw, message", [
    ({"tz": 5}, "time zone is named by a string"),
    ({"now": "x"}, "now must be an integer"),
    ({"reference_year": "x"}, "reference_year must be an integer"),
])
def test_rejects_arguments_of_the_wrong_type(kw, message):
    with pytest.raises(EncodeError, match=message):
        encode_log([{"ts": "Jan  2 03:04:05"}], "log", "test",
                   PRESETS["switchlog"], **kw)


def test_zero_records_and_empty_records():
    assert len(observations(encode_log([], "log", "test"))) == 1
    text = encode_log([{}, {"other": 1}], "log", "test")
    assert text.count("= $;") == 2


@pytest.mark.parametrize("name", ["where", "fby", "true", "1log", "log\n",
                                  "a-b", ""])
def test_rejects_unusable_sequence_names(name):
    with pytest.raises(EncodeError, match="sequence name"):
        encode_log([], name, "test")


@pytest.mark.parametrize("dimension", ["where", "eod", "fby"])
def test_rejects_reserved_dimensions(dimension):
    schema = _Schema((_FieldSpec("f", dimension, "text"),))
    with pytest.raises(EncodeError, match="dimension of field 'f'"):
        encode_log([], "log", "test", schema)


def test_field_spec_checks_its_dimension_and_type():
    with pytest.raises(EncodeError, match="dimension of field 'f'"):
        _FieldSpec("f", "bad dim", "text")
    with pytest.raises(EncodeError, match="unknown type"):
        _FieldSpec("f", "d", "blob")


def test_schema_checks_partial_credibility():
    for w in (-0.1, 1.5, math.nan, True):
        with pytest.raises(EncodeError, match="partial credibility"):
            _Schema((_FieldSpec("f", "d", "text"),), w)


@pytest.mark.parametrize("field, value, why", [
    ("ipaddr", "10.0.0.1\nmore", "newline"),     # a text field
    ("mac", "zz\n", "newline"),         # a raw value kept from a failed field
    ("hostname", "a\n.", "newline"),
    # past the interpreter's int-to-text digit limit
    pytest.param("ipaddr", 10 ** 5000, "digits", id="ipaddr-huge-int"),
    pytest.param("mac", 10 ** 5000, "digits", id="mac-huge-int"),
])
def test_rejects_values_with_no_string_literal(field, value, why):
    records = [{"ipaddr": "10.0.0.1"}, {field: value}]
    with pytest.raises(EncodeError,
                       match="record 2, field '%s': .*%s" % (field, why)):
        encode_log(records, "log", "test", PRESETS["dhcp"])


@pytest.mark.parametrize("record", [None, 5, "ipaddr", ["ipaddr", "1.2.3.4"]])
def test_rejects_a_record_that_is_not_a_mapping(record):
    records = [{"ipaddr": "10.0.0.1"}, record]
    with pytest.raises(EncodeError, match="record 2 is not a mapping"):
        encode_log(records, "log", "test", PRESETS["dhcp"])


def test_rejects_multiline_source_and_unknown_zone():
    with pytest.raises(EncodeError, match="spans lines"):
        encode_log([], "log", "a\nlog = 1;")
    with pytest.raises(EncodeError, match="time zone"):
        encode_log([], "log", "test", tz="Nowhere/Else")


def test_output_is_a_function_of_the_inputs(tmp_path):
    records = [{"ts": "2020-01-02 03:04:05", "mac": "aabbccddeeff"}]
    dhcp = PRESETS["dhcp"]
    text = encode_log(records, "log", "case/log", dhcp)
    assert text == encode_log(records, "log", "case/log", dhcp)
    assert text.splitlines()[2] == "  // encoded from case/log"
    stamped = encode_log(records, "log", "case/log", dhcp, now=1577934245,
                         tz="UTC")
    assert stamped.splitlines()[2] == \
        "  // encoded Thu Jan 2 03:04:05 2020 (1577934245) from case/log"

    digests = []
    for sub in ("one", "two"):
        (tmp_path / sub).mkdir()
        ctx, sha = encode_to_files(records, "case", "log", dhcp,
                                   str(tmp_path / sub))
        with open(ctx, encoding="utf-8") as fh:
            assert fh.read() == text
        with open(sha, encoding="utf-8") as fh:
            digests.append(fh.read())
    assert digests[0] == digests[1] == "%s  case.log.ctx\n" % (
        hashlib.sha256(text.encode("utf-8")).hexdigest())


def test_encode_to_files_checks_its_tags(tmp_path):
    for case, source in (("../x", "log"), ("case", "where")):
        with pytest.raises(EncodeError):
            encode_to_files([], case, source, PRESETS["arp"], str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_encode_to_files_reports_a_directory_it_cannot_write(tmp_path):
    with pytest.raises(EncodeError, match="cannot write"):
        encode_to_files([], "case", "log", PRESETS["arp"],
                        str(tmp_path / "missing"))


ALL_TYPES = _Schema(tuple(
    _FieldSpec("f%d" % i, dim, t) for i, (dim, t) in enumerate(zip(
        ("INF", "d_int", "d_real", "mac", "ts", "host", "ts2", "note"),
        ("text", "int", "real", "mac", "timestamp", "hostname", "timestamp",
         "text")))))

GOLDEN = r"""log
where
  // encoded Thu Jan 1 00:00:00 1970 (0) from golden
  observation log_o_1 = ([INF:"a\"b\\c", d_int:-12, d_real:-1.5, mac:"aa:bb:cc:dd:ee:ff", host:"host.name", ts2:"Thu Jan 2 03:04:05 2020"], 1, 0, 1.0, -86400);
  observation log_o_2 = ([d_int:31, d_real:1e-300, mac:"zz", note:"note"], 1, 0, 0.5);
  observation log_o_3 = $;
  observation log_o_4 = ([d_int:7], 1, 0, 1.0, 5);
  observation sequence log = {log_o_1, log_o_2, log_o_3, log_o_4};
end
"""


def test_encoded_text_is_golden():
    # every field type, a second stamp kept as a pair, a negative int and
    # epoch, a failed field (mac "zz"), a missing field, an empty record
    text = encode_log(
        [{"f0": 'a"b\\c', "f1": "-12", "f2": "-1.5",
          "f3": "AA-BB-CC-DD-EE-FF", "f4": "-86400", "f5": "Host.Name.",
          "f6": "2020-01-02 03:04:05"},
         {"f1": "0x1f", "f2": "1e-300", "f3": "zz", "f7": "note"},
         {},
         {"f4": 5, "f1": 7}],
        "log", "golden", ALL_TYPES, tz="UTC", now=0)
    assert text == GOLDEN
    assert_prints_back(text)


# ---------------------------------------------------------------------------
# The round trip over adversarial records
# ---------------------------------------------------------------------------

TRICKY = ['"', '\\', '\\"', "\t", "\x00", "\r", "é", "日本", "\U0001F600",
          "where", "fby", "true", "eod", "INF+", "$", "//", "/*", "*/", "#JAVA",
          "-12", "-0x1f", "0x1F", "0b101", "-1.5", "-0.0", "1e-300", "inf",
          "nan", "1e400", "AA-BB-CC-DD-EE-FF", "aabb.ccdd.eeff", "Host.Name.",
          "Jan  2 03:04:05", "2020-01-02 03:04:05 PST", "202001020304",
          "-86400", "99999999999999999"]

values = st.one_of(
    st.sampled_from(TRICKY),
    st.lists(st.sampled_from(TRICKY), max_size=4).map("".join),
    st.text(st.characters(blacklist_characters="\n"), max_size=12),
    st.integers(-10 ** 12, 10 ** 12),
    st.floats(),
)
records = st.lists(st.dictionaries(
    st.sampled_from([f.field for f in ALL_TYPES.fields]), values), max_size=6)


# encode_log does not analyze its program: its names are unique by
# construction, and this test is what holds it to that
identifiers = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.tuples(st.sampled_from(["x", "seq", "INF", "x_o_1"]),
              st.integers(1, 7)).map("%s_o_%d".__mod__),
    st.sampled_from(["INF", "x_o_1", "x", "d"]),
).filter(lambda word: word not in KEYWORDS)


@st.composite
def namings(draw):
    """(sequence name, ALL_TYPES with its dimensions renamed)."""
    dims = draw(st.lists(identifiers, min_size=len(ALL_TYPES.fields),
                         max_size=len(ALL_TYPES.fields), unique=True))
    schema = _Schema(tuple(_FieldSpec(f.field, dim, f.type)
                          for f, dim in zip(ALL_TYPES.fields, dims)))
    return draw(st.one_of(identifiers, st.sampled_from(dims))), schema


@settings(max_examples=150, deadline=None)
@given(records, namings())
def test_round_trip_adversarial_records(recs, naming):
    name, schema = naming
    text = encode_log(recs, name, "fuzz", schema, tz="UTC",
                      reference_year=2020)
    assert_prints_back(text)
    n = max(len(recs), 1)
    analysis = analyze(parse(text))
    assert sorted(analysis.env) == sorted(
        [name] + ["%s_o_%d" % (name, k) for k in range(1, n + 1)])
    assert len(observations(text)) == n


# ---------------------------------------------------------------------------
# Every call returns or raises a FlucidError
# ---------------------------------------------------------------------------

PRESET_FIELDS = sorted({f.field for schema in PRESETS.values()
                        for f in schema.fields})
json_like = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=8), st.sampled_from(TRICKY)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
keys = st.one_of(st.sampled_from(PRESET_FIELDS), st.text(max_size=4),
                 st.integers(-2, 2), st.none(), st.tuples(st.integers(0, 2)))
WRONG = [5, 1.5, True, "x", b"UTC", ("UTC",), [2020]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(records=st.lists(st.dictionaries(keys, json_like, max_size=6),
                        max_size=4),
       preset=st.sampled_from(sorted(PRESETS)),
       tz=st.sampled_from([None, "UTC", "EST", "Asia/Tokyo", "Nowhere/Else"]
                          + WRONG),
       now=st.one_of(st.none(), st.integers(-10 ** 12, 10 ** 12),
                     st.sampled_from(WRONG)),
       reference_year=st.one_of(st.none(), st.integers(-5, 10 ** 4),
                                st.sampled_from(WRONG)),
       name=st.sampled_from(["log"] + WRONG),
       source=st.sampled_from(["gate"] + WRONG))
def test_encode_log_returns_or_raises_a_flucid_error(records, preset, tz, now,
                                                     reference_year, name,
                                                     source):
    # any other exception fails the test
    try:
        encode_log(records, name, source, PRESETS[preset], tz=tz, now=now,
                   reference_year=reference_year)
    except FlucidError:
        pass
