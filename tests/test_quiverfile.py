"""The quiver file format.

Core claims:
    - parse(serialize(x)) == x for every shipped fixture
    - comments, blank lines, and multi-name vertex lines are accepted
    - every malformed construct raises ParseError with its line number
    - a rotation system is synthesized exactly when rotation lines are
      present or the quiver has no arrows
    - the outer directive requires rotation lines and a face index; an
      index with more digits than int() converts is a ParseError
    - load drops one leading UTF-8 byte-order mark; a U+FEFF anywhere
      else is text, and an unknown directive where it starts a line
    - any text built from directives, names, darts and digits (ASCII or
      not) parses or raises ParseError / InvalidRotationError, nothing else
"""

import pytest
from hypothesis import given, settings, strategies as st

from quiverdiff.errors import InvalidRotationError, ParseError
from quiverdiff.quiverfile import QuiverFile, load, parse

from helpers import FIXTURE_DIR, load_fixture, serialize


# -- Round trips ---------------------------------------------------------------

def test_all_fixtures_roundtrip():
    for path in sorted(FIXTURE_DIR.glob("*.quiver")):
        qf = load(path)
        assert parse(serialize(qf)) == qf, path.name


def test_serialize_is_idempotent():
    for name in ("k2", "triangle_tails", "single_vertex"):
        text = serialize(load_fixture(name))
        assert serialize(parse(text)) == text


def test_parse_minimal():
    qf = parse("vertex v\n")
    assert qf.name == ""
    assert qf.quiver.num_vertices == 1
    assert qf.quiver.num_arrows == 0
    assert qf.rotation is not None  # no arrows, empty rotation synthesized
    assert qf.outer is None


def test_parse_comments_and_blank_lines():
    qf = parse(
        """
        # a quiver
        quiver demo

        vertex u v  # two vertices on one line
        arrow a u v
        """
    )
    assert qf.name == "demo"
    assert qf.quiver.vertex_names == ("u", "v")
    assert qf.rotation is None  # arrows present, no rotation lines


def test_rotation_lines_build_a_rotation_system():
    qf = parse(
        "vertex u v\narrow a u v\nrotation u a+\nrotation v a-\n"
    )
    assert qf.rotation is not None


# -- Errors --------------------------------------------------------------------

def test_duplicate_vertex_reports_line():
    with pytest.raises(ParseError) as exc:
        parse("vertex u\nvertex u\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_unknown_arrow_endpoint_reports_line():
    with pytest.raises(ParseError) as exc:
        parse("vertex u\narrow a u w\n")
    assert exc.value.line == 2
    assert "unknown vertex w" in str(exc.value)


def test_bad_arity_and_names():
    with pytest.raises(ParseError):
        parse("arrow a u\n")
    with pytest.raises(ParseError):
        parse("vertex u!\n")
    with pytest.raises(ParseError):
        parse("quiver one two\n")
    with pytest.raises(ParseError):
        parse("frobnicate u\n")


def test_duplicate_directives_rejected():
    with pytest.raises(ParseError):
        parse("quiver a\nquiver b\nvertex v\n")
    with pytest.raises(ParseError):
        parse("vertex u v\narrow a u v\nrotation u a+\nrotation u a+\n")


def test_rotation_for_unknown_vertex():
    with pytest.raises(ParseError) as exc:
        parse("vertex u\nrotation w\n")
    assert exc.value.line == 2


def test_bad_dart_token_reports_rotation_line():
    with pytest.raises(ParseError) as exc:
        parse("vertex u v\narrow a u v\nrotation u b+\nrotation v a-\n")
    assert exc.value.line == 3


def test_incomplete_rotation_is_invalid():
    with pytest.raises(InvalidRotationError):
        parse("vertex u v\narrow a u v\nrotation u a+\n")


def test_outer_requires_rotation_and_an_index():
    with pytest.raises(ParseError):
        parse("vertex u v\narrow a u v\nouter 0\n")
    with pytest.raises(ParseError):
        parse("vertex v\nouter -1\n")
    with pytest.raises(ParseError):
        parse("vertex v\nouter first\n")
    with pytest.raises(ParseError):
        parse("vertex v\nouter \u00b2\n")  # a digit to str.isdigit, not to int()
    with pytest.raises(ParseError, match="line 2"):
        parse("vertex v\nouter " + "1" * 5000 + "\n")  # past int()'s digit limit
    qf = parse("vertex u v\narrow a u v\nrotation u a+\nrotation v a-\nouter 1\n")
    assert qf.outer == 1


def test_load_missing_file():
    with pytest.raises(OSError):
        load(FIXTURE_DIR / "does_not_exist.quiver")


_BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("name", ["a2", "torus_k4"])
def test_load_ignores_one_leading_byte_order_mark(tmp_path, name):
    path = FIXTURE_DIR / f"{name}.quiver"
    marked = tmp_path / path.name
    marked.write_bytes(_BOM + path.read_bytes())
    assert load(marked) == load(path)
    # only one mark is dropped: a second one is text on line 1
    marked.write_bytes(_BOM + _BOM + path.read_bytes())
    with pytest.raises(ParseError, match=r"^line 1: unknown directive '\\ufeff"):
        load(marked)


def test_a_byte_order_mark_after_the_start_is_text(tmp_path):
    path = tmp_path / "late.quiver"
    path.write_bytes(b"vertex u\n" + _BOM + b"vertex v\n")
    with pytest.raises(ParseError) as e:
        load(path)
    assert str(e.value) == "line 2: unknown directive '\\ufeffvertex'"


# -- Fuzzing -------------------------------------------------------------------

_NAMES = st.sampled_from(("u", "v", "w", "a", "b", "c", "u!", "\u00b2"))
_DARTS = st.sampled_from(("a+", "a-", "b+", "b-", "c+", "a*", "v+"))
_INDICES = st.sampled_from(("0", "1", "2", "-1", "07", "\u00b2", "\u0663", "\uff11", "1\u00b2"))


def _line(keyword, *args):
    return " ".join([keyword, *args])


# one strategy per directive, so most lines are well formed and later lines
# still reach the checks that need earlier vertices, arrows or rotations
_LINES = st.one_of(
    st.builds(_line, st.just("quiver"), _NAMES),
    st.lists(_NAMES, max_size=3).map(lambda names: _line("vertex", *names)),
    st.lists(_NAMES, min_size=2, max_size=4).map(lambda names: _line("arrow", *names)),
    st.builds(
        lambda v, darts: _line("rotation", v, *darts), _NAMES, st.lists(_DARTS, max_size=3)
    ),
    st.builds(_line, st.just("outer"), _INDICES),
    st.text(max_size=12),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(_LINES, max_size=10).map("\n".join))
def test_parse_raises_only_documented_errors(text):
    try:
        qf = parse(text)
    except (ParseError, InvalidRotationError):
        return
    assert isinstance(qf, QuiverFile)
