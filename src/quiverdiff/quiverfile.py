"""Line-oriented text format for quivers with optional embeddings.

    # Kronecker quiver, planar embedding
    quiver k2
    vertex v1 v2
    arrow p1 v1 v2
    arrow p2 v1 v2
    rotation v1 p1+ p2+
    rotation v2 p1- p2-
    outer 0

Directives: ``quiver <name>`` (optional, once), ``vertex <name>...``,
``arrow <name> <tail> <head>``, ``rotation <vertex> <dart>...`` (at most
one per vertex; ``p+`` is the tail end of arrow p, ``p-`` the head
end), ``outer <faceIndex>`` (optional, once, requires rotations).
``#`` starts a comment; names are alphanumeric plus ``_`` and ``.``.

A file with no rotation lines carries no embedding, except that a
quiver without arrows is trivially embedded and gets the empty rotation
system for free.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .embedding import RotationSystem, dart_display, dart_from_text
from .errors import ParseError
from .quiver import Quiver

_NAME = re.compile(r"[A-Za-z0-9_.]+\Z")


# rotation is a RotationSystem or None, outer a face index or None
QuiverFile = namedtuple("QuiverFile", "name quiver rotation outer")


def parse(text: str) -> QuiverFile:
    """Parse the file format; raises ParseError with a line number."""
    name = ""
    saw_name = False
    vertices: list[str] = []
    vertex_lines: dict[str, int] = {}
    arrows: list[tuple[str, str, str]] = []
    arrow_names: set[str] = set()
    rotation_raw: dict[str, tuple[int, list[str]]] = {}
    outer: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "quiver":
            if saw_name:
                raise ParseError("duplicate quiver directive", line=lineno)
            if len(args) != 1:
                raise ParseError("quiver expects exactly one name", line=lineno)
            _check_name(args[0], lineno)
            name, saw_name = args[0], True
        elif keyword == "vertex":
            if not args:
                raise ParseError("vertex expects at least one name", line=lineno)
            for v in args:
                _check_name(v, lineno)
                if v in vertex_lines:
                    raise ParseError(f"vertex {v} declared twice", line=lineno)
                vertex_lines[v] = lineno
                vertices.append(v)
        elif keyword == "arrow":
            if len(args) != 3:
                raise ParseError("arrow expects: name tail head", line=lineno)
            a, tail, head = args
            _check_name(a, lineno)
            if a in arrow_names:
                raise ParseError(f"arrow {a} declared twice", line=lineno)
            for v in (tail, head):
                if v not in vertex_lines:
                    raise ParseError(
                        f"arrow {a} references unknown vertex {v}", line=lineno
                    )
            arrow_names.add(a)
            arrows.append((a, tail, head))
        elif keyword == "rotation":
            if not args:
                raise ParseError("rotation expects a vertex name", line=lineno)
            v = args[0]
            if v not in vertex_lines:
                raise ParseError(f"rotation for unknown vertex {v}", line=lineno)
            if v in rotation_raw:
                raise ParseError(f"duplicate rotation for vertex {v}", line=lineno)
            rotation_raw[v] = (lineno, args[1:])
        elif keyword == "outer":
            if outer is not None:
                raise ParseError("duplicate outer directive", line=lineno)
            if len(args) != 1 or not args[0].isascii() or not args[0].isdigit():
                raise ParseError("outer expects a nonnegative face index", line=lineno)
            outer = int(args[0])
        else:
            raise ParseError(f"unknown directive {keyword!r}", line=lineno)

    quiver = Quiver(vertices, arrows, name=name)
    rotation = None
    if rotation_raw or quiver.num_arrows == 0:
        orders = []
        for v in quiver.vertex_names:
            lineno, dart_texts = rotation_raw.get(v, (0, []))
            darts = []
            for t in dart_texts:
                try:
                    darts.append(dart_from_text(quiver, t))
                except ValueError as e:
                    raise ParseError(str(e), line=lineno) from None
            orders.append(darts)
        rotation = RotationSystem(quiver, orders)
    if outer is not None and rotation is None:
        raise ParseError("outer directive requires rotation lines")
    return QuiverFile(name=name, quiver=quiver, rotation=rotation, outer=outer)


def _check_name(token: str, lineno: int) -> None:
    if not _NAME.match(token):
        raise ParseError(f"invalid name {token!r}", line=lineno)


def load(path) -> QuiverFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(qf: QuiverFile) -> str:
    """Canonical text for a QuiverFile; parse(serialize(x)) == x."""
    q = qf.quiver
    lines = []
    if qf.name:
        lines.append(f"quiver {qf.name}")
    if q.num_vertices:
        lines.append("vertex " + " ".join(q.vertex_names))
    for a in q.arrows:
        lines.append(f"arrow {a.name} {q.vertex_names[a.tail]} {q.vertex_names[a.head]}")
    if qf.rotation is not None:
        for v, order in enumerate(qf.rotation.orders):
            parts = ["rotation", q.vertex_names[v]]
            parts += [dart_display(q, d) for d in order]
            lines.append(" ".join(parts))
    if qf.outer is not None:
        lines.append(f"outer {qf.outer}")
    return "\n".join(lines) + "\n"
