"""Golden corpus: every bundled program parses and pretty-prints round trip."""

import hashlib
from pathlib import Path

import pytest

from flucid.syntax import parse, pretty_print, tokenize
from flucid.syntax.nodes import walk
from flucid.values import FlucidError

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.ipl"))
CASES = sorted((Path(__file__).parent / "cases").glob("*.ipl"))

ALL = CORPUS + CASES


def _read(path):
    return path.read_text(encoding="ascii")


@pytest.mark.parametrize("path", ALL, ids=lambda p: p.stem)
def test_parses(path):
    text = _read(path)
    assert parse(text) == parse(tokenize(text))


@pytest.mark.parametrize("path", ALL, ids=lambda p: p.stem)
def test_pretty_round_trip_is_structurally_exact(path):
    tree = parse(_read(path))
    printed = pretty_print(tree)
    assert parse(printed) == tree


def test_corpus_is_complete():
    # the golden set: seven case-study programs and nine encoded fragments
    assert len(CORPUS) == 16
    assert len(CASES) == 3


@pytest.mark.parametrize("path", ALL, ids=lambda p: p.stem)
def test_analyzes_without_errors(path):
    from flucid.semantics import analyze

    analyze(parse(_read(path)))     # raises on any record


FRONT_END_DIGEST = \
    "d1a306549386e8bda74805db8de84c1e65ad887953fed1d154b39c7f6391bef6"


def _position(span):
    return span.line, span.col, span.offset, span.end


def test_front_end_digest():
    """Every token's kind, value and position, and every node's type and
    span in pre-order (or the error, with its position), over the test
    programs and the fixtures.  The digest changes only with a note in
    CHANGES.md that says why."""
    tests = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(tests.rglob("*.ipl")) + sorted(
            (tests / "fixtures").iterdir()):
        text = path.read_text(encoding="utf-8")
        rows = [path.relative_to(tests).as_posix()]
        try:
            toks = tokenize(text)
            rows += [(kind, value, *_position(toks.span(i, i)))
                     for i, (kind, value) in enumerate(zip(toks.kinds,
                                                           toks.values))]
            rows += [(type(n).__name__, *_position(n.span))
                     for n in walk(parse(text))]
        except FlucidError as err:
            rows.append((type(err).__name__, str(err), *_position(err.span)))
        digest.update(repr(rows).encode("utf-8"))
    assert digest.hexdigest() == FRONT_END_DIGEST
