"""Command line interface: check, report, hh1, derivations.

Every command reads one quiver file and writes a single line of
canonical JSON (sorted keys, no whitespace, rationals as exact
"num/den" strings) so that identical inputs produce identical bytes,
all through one writer: _emit writes a payload as its _pieces, in order.
Exit codes: 0 success, 1 semantic failure or an input too large for the
memory at hand, 2 usage or parse error, or output that stdout refused (a
full disk, a reader that closed the pipe).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import repeat
from types import GeneratorType

from . import cohomology, derivations, linalg, quiverfile
from .errors import ORACLE_MAX_PATHS, InvalidRotationError, ParseError, QuiverError


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class _Json(str):
    """JSON text that a payload holds as written (see _pieces)."""


def _dense_rows(rows, num_cols: int):
    """The JSON text of each sparse row of ``rows`` written out dense, as a
    _Json, from pre-quoted "0" cells, every zero row as one shared text; str
    of a coefficient is the output format: "n", or "n/d" in lowest terms.
    Passed to _emit, the generator writes the dense matrix row by row."""
    cells = ['"0"'] * num_cols
    zero = _Json("[" + ",".join(cells) + "]")
    for entries in rows:
        for j, x in entries.items():
            cells[j] = f'"{x}"'
        yield _Json("[" + ",".join(cells) + "]") if entries else zero
        for j in entries:
            cells[j] = '"0"'


def _pieces(value):
    """The canonical JSON text of ``value`` in pieces: a dict key by key in
    sorted order, a generator as an array item by item, a _Json as it stands,
    anything else in one encoder call."""
    if type(value) is dict:
        yield "{"
        for k, (key, item) in enumerate(sorted(value.items())):
            yield ("," if k else "") + _ENCODER.encode(key) + ":"
            yield from _pieces(item)
        yield "}"
    elif type(value) is GeneratorType:
        yield "["
        for k, item in enumerate(value):
            yield "," if k else ""
            yield from _pieces(item)
        yield "]"
    elif type(value) is _Json:
        yield value
    else:
        yield _ENCODER.encode(value)


class _OutputError(Exception):
    """stdout refused the output."""


def _emit(payload) -> None:
    """Write the canonical JSON text of ``payload`` and a newline to
    stdout, its _pieces joined into writes of 64 KiB or more (the last one
    aside): unbuffered, each write is a system call."""
    out = sys.stdout
    if out is None:
        raise _OutputError("stdout is closed")
    try:
        write = out.write
        if hasattr(out, "buffer"):
            # unbuffered (python -u), the text layer drops the rest of a
            # short write unseen: write the bytes until all are taken
            out.flush()
            encoding, out = out.encoding, out.buffer

            def write(text):
                data = memoryview(text.encode(encoding))
                while data:
                    data = data[out.write(data):]

        held, size = [], 0
        for text in _pieces(payload):
            held.append(text)
            size += len(text)
            if size >= 1 << 16:
                write("".join(held))
                held, size = [], 0
        write("".join(held) + "\n")
        out.flush()
    except OSError as e:
        # the interpreter flushes stdout once more on exit: point it at
        # devnull, so what is still buffered has somewhere to go
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _OutputError(e.strerror or str(e)) from None


def _fail(message: str) -> None:
    sys.stderr.write(message + "\n")


def _require_rotation(qf):
    if qf.rotation is None:
        raise QuiverError("the file declares no rotation system")
    return qf.rotation


def cmd_check(qf, args) -> int:
    q = qf.quiver
    acyclic = q.is_acyclic()
    failed = args.require_acyclic and not acyclic
    _emit(
        {
            "quiver": qf.name,
            "numVertices": q.num_vertices,
            "numArrows": q.num_arrows,
            "acyclic": acyclic,
            "connected": q.is_connected(),
            "rotation": "absent" if qf.rotation is None else "valid",
            "ok": not failed,
        }
    )
    if failed:
        _fail("CyclicQuiver: the quiver contains a directed cycle")
    return 1 if failed else 0


def cmd_report(qf, args) -> int:
    rot = _require_rotation(qf)
    rep = cohomology.combinatorial_report(qf.quiver, rot)
    matrices = {"Cva": rep.c_va, "Cca": rep.c_ca, "Cgamma": rep.c_gamma, "Bgamma": rep.b_gamma}
    _emit(
        {
            "quiver": qf.name,
            "numVertices": rep.num_vertices,
            "numArrows": rep.num_arrows,
            "numFaces": rep.num_faces,
            "genus": rep.genus,
            "dimDV": rep.dim_dv,
            "dimDE": rep.dim_de,
            "dimDF": rep.dim_df,
            "dimSum": rep.dim_sum,
            "eulerHolds": rep.euler_holds,
            "spacesDisjoint": rep.spaces_disjoint,
            "rankTheoremsHold": rep.rank_theorems_hold,
            "facesSumToZero": rep.faces_sum_to_zero,
            "ranks": {
                "Cva": rep.rank_c_va,
                "Cca": rep.rank_c_ca,
                "Cgamma": rep.rank_c_gamma,
                "Bgamma": rep.rank_b_gamma,
            },
            "matrices": {k: _dense_rows(m._entries, m.num_cols) for k, m in matrices.items()},
            "faces": [list(f.display(qf.quiver)) for f in rep.faces],
        }
    )
    return 0


def cmd_hh1(qf, args) -> int:
    q = qf.quiver
    rot = _require_rotation(qf)
    outer = args.outer_face if args.outer_face is not None else qf.outer
    oracle_dim = None
    if args.oracle:
        # the oracle refuses a quiver over its cap: ask it before the table, once
        # the quiver and the outer index pass the checks hh1_structure makes first
        cohomology._dropped_face(q, rot, outer)
        ops = derivations.derivation_space_oracle(q, max_paths=args.max_oracle_paths)
        oracle_dim = len(ops) - derivations.inner_subspace(q).rank()
    st = cohomology.hh1_structure(q, rot, outer)
    hb = st.basis
    labels = hb.display_labels()
    # one text per record, its keys in sorted order, the labels encoded once
    names = [_ENCODER.encode(label) for label in labels]
    rows = _dense_rows((row for _, _, row in st.brackets), hb.dimension)
    _emit(
        {
            "quiver": qf.name,
            "dim": hb.dimension,
            # hh1_basis checked that the face formula, happel_dimension(q) and
            # the number of its labels agree
            "faceFormula": hb.dimension,
            "happel": hb.dimension,
            "oracle": oracle_dim,
            "genus": hb.genus,
            "droppedFace": hb.dropped_face,
            "basis": list(labels),
            "structure": {
                "enforced": st.enforced,
                "brackets": (
                    _Json(f'{{"coords":{text},"left":{names[i]},"right":{names[j]}}}')
                    for (i, j, _), text in zip(st.brackets, rows)
                ),
                "eigenvalues": (
                    _Json(f'{{"al":{names[i]},"face":{names[j]},"value":"{lam}"}}')
                    for i, j, lam in st.eigenvalues
                ),
                "verdicts": {
                    "facesCommute": st.faces_commute,
                    "faceActsDiagonally": st.face_acts_diagonally,
                    "alBracketsInAlSpan": st.al_brackets_in_al_span,
                },
            },
        }
    )
    return 0


def cmd_derivations(qf, args) -> int:
    q = qf.quiver
    # the oracle refuses a quiver over its cap: ask it before building anything
    ops = None
    if args.oracle:
        ops = derivations.derivation_space_oracle(q, max_paths=args.max_oracle_paths)
    basis = derivations.canonical_basis(q)
    labels = basis.display_labels()
    n = len(q.paths())
    payload = {
        "quiver": qf.name,
        "dim": len(basis),
        "innerRank": derivations.inner_subspace(q).rank(),
        "labels": list(labels),
        # each member's matrix is written row by row, from its images
        "basis": (
            {"label": label, "matrix": _dense_rows(map(op._rows().get, range(n), repeat({})), n)}
            for label, op in zip(labels, basis.operators)
        ),
    }
    if ops is not None:
        # every oracle operator in the span of the basis: a solve with no subspace
        solver = linalg.LinearSolver(linalg.RationalMatrix.zeros(0, n * n), basis.flat_rows())
        spans_match = len(ops) == len(basis) and all(
            solver.solve(op.flat_row()) is not None for op in ops
        )
        payload["oracle"] = {"dim": len(ops), "spansMatch": spans_match}
    if args.verify:
        members = [
            {
                "label": label,
                "isDerivation": derivations.is_derivation(op),
                "violations": len(derivations.check_coefficient_conditions(op)),
            }
            for label, op in zip(labels, basis.operators)
        ]
        identities = derivations.verify_bracket_identities(basis)
        sign = derivations.inner_edge_bracket_sign(basis)
        payload["verify"] = {
            "members": members,
            "bracketChecks": {
                "innerInner": identities["inner_inner"],
                "edgeEdge": identities["edge_edge"],
            },
            "innerEdgeBracketSign": sign,
        }
    _emit(payload)
    return 0


def _path_count(text: str) -> int:
    """argparse type of --max-oracle-paths: a whole number, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if digits.isdecimal():  # more digits than int() converts
            raise argparse.ArgumentTypeError(
                f"a path count has too many digits ({len(digits)})"
            ) from None
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a path count cannot be negative: {text}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverdiff",
        description="Derivation Lie algebras and HH1 of acyclic quiver path algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a quiver file")
    p.add_argument("file")
    p.add_argument(
        "--require-acyclic",
        action="store_true",
        help="fail when the quiver has a directed cycle",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("report", help="relation matrices, ranks, Euler formula")
    p.add_argument("file")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("hh1", help="HH1 dimension, basis, and structure constants")
    p.add_argument("file")
    p.add_argument(
        "--outer-face",
        type=int,
        default=None,
        metavar="N",
        help="index of the face to drop (overrides the file's outer directive)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the dimension against the brute-force Leibniz solver",
    )
    p.add_argument("--max-oracle-paths", type=_path_count, default=ORACLE_MAX_PATHS, metavar="N")
    p.set_defaults(handler=cmd_hh1)

    p = sub.add_parser("derivations", help="canonical basis of the derivation algebra")
    p.add_argument("file")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="compare against the brute-force Leibniz solver",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-check the Leibniz rule, coefficient conditions, and bracket identities",
    )
    p.add_argument("--max-oracle-paths", type=_path_count, default=ORACLE_MAX_PATHS, metavar="N")
    p.set_defaults(handler=cmd_derivations)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(quiverfile.load(args.file), args)
    except _OutputError as e:
        _fail(f"cannot write output: {e}")
        return 2
    except OSError as e:
        _fail(f"cannot read {args.file}: {e.strerror or e}")
        return 2
    except UnicodeDecodeError as e:
        _fail(f"cannot read {args.file}: not UTF-8 text (byte {e.start})")
        return 2
    except (ParseError, InvalidRotationError, ValueError) as e:
        _fail(str(e))
        return 2
    except QuiverError as e:
        _fail(f"{type(e).__name__}: {e}")
        return 1
    except MemoryError:
        _fail("MemoryError: out of memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
