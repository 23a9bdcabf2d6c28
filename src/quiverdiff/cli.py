"""Command line interface: check, report, hh1, derivations.

Every command reads one quiver file and writes a single line of
canonical JSON (sorted keys, no whitespace, rationals as exact
"num/den" strings) so that identical inputs produce identical bytes.
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

from .cohomology import (
    _dropped_face,
    _face_formula,
    _require_connected_acyclic,
    combinatorial_report,
    happel_dimension,
    hh1_structure,
)
from .derivations import (
    ORACLE_MAX_PATHS,
    canonical_basis,
    check_coefficient_conditions,
    derivation_space_oracle,
    inner_edge_bracket_sign,
    inner_subspace,
    is_derivation,
    verify_bracket_identities,
)
from .embedding import trace_faces
from .errors import InvalidRotationError, ParseError, QuiverError
from .linalg import LinearSolver, RationalMatrix
from . import quiverfile


def _matrix(m) -> list[list[str]]:
    # the sparse rows written out dense, every all-zero row as one shared
    # list; str of a Fraction is the output format: "n", or "n/d" in lowest terms
    zero = ["0"] * m.num_cols
    rows = []
    for entries in m._entries:
        row = zero.copy() if entries else zero
        for j, x in entries.items():
            row[j] = str(x)
        rows.append(row)
    return rows


class _OutputError(Exception):
    """stdout refused the output."""


def _emit(payload) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    out = sys.stdout
    if out is None:
        raise _OutputError("stdout is closed")
    try:
        if hasattr(out, "buffer"):
            # unbuffered (python -u), the text layer drops the rest of a
            # short write unseen: write the bytes until all are taken
            out.flush()
            out, data = out.buffer, memoryview(text.encode(out.encoding))
            while data:
                data = data[out.write(data):]
        else:
            out.write(text)
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
    payload = {
        "quiver": qf.name,
        "numVertices": q.num_vertices,
        "numArrows": q.num_arrows,
        "acyclic": acyclic,
        "connected": q.is_connected(),
        "rotation": "absent" if qf.rotation is None else "valid",
    }
    failures = []
    if args.require_acyclic and not acyclic:
        failures.append("CyclicQuiver: the quiver contains a directed cycle")
    payload["ok"] = not failures
    _emit(payload)
    for f in failures:
        _fail(f)
    return 0 if not failures else 1


def cmd_report(qf, args) -> int:
    rot = _require_rotation(qf)
    rep = combinatorial_report(qf.quiver, rot)
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
            "matrices": {
                "Cva": _matrix(rep.c_va),
                "Cca": _matrix(rep.c_ca),
                "Cgamma": _matrix(rep.c_gamma),
                "Bgamma": _matrix(rep.b_gamma),
            },
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
        # the oracle refuses a quiver over its cap: ask it before the table,
        # once the quiver and the outer index have passed the checks
        # hh1_structure makes first
        _require_connected_acyclic(q)
        _dropped_face(trace_faces(rot), outer)
        ops = derivation_space_oracle(q, max_paths=args.max_oracle_paths)
        oracle_dim = len(ops) - inner_subspace(q).rank()
    st = hh1_structure(q, rot, outer)
    hb = st.basis
    labels = hb.display_labels()
    coords = _matrix(RationalMatrix._of((row for _, _, row in st.brackets), hb.dimension))
    num_al = sum(label.kind == "al" for label in hb.labels)
    _emit(
        {
            "quiver": qf.name,
            "dim": hb.dimension,
            "faceFormula": _face_formula(len(hb.faces), num_al, hb.genus),
            "happel": happel_dimension(q),
            "oracle": oracle_dim,
            "genus": hb.genus,
            "droppedFace": hb.dropped_face,
            "basis": list(labels),
            "structure": {
                "enforced": st.enforced,
                "brackets": [
                    {"left": labels[i], "right": labels[j], "coords": text}
                    for (i, j, _), text in zip(st.brackets, coords)
                ],
                "eigenvalues": [
                    {"al": labels[i], "face": labels[j], "value": str(lam)}
                    for i, j, lam in st.eigenvalues
                ],
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
    ops = derivation_space_oracle(q, max_paths=args.max_oracle_paths) if args.oracle else None
    basis = canonical_basis(q)
    labels = basis.display_labels()
    payload = {
        "quiver": qf.name,
        "dim": len(basis),
        "innerRank": inner_subspace(q).rank(),
        "labels": list(labels),
        "basis": [
            {"label": label, "matrix": _matrix(op.matrix)}
            for label, op in zip(labels, basis.operators)
        ],
    }
    if ops is not None:
        # every oracle operator in the span of the basis: a solve with no subspace
        solver = LinearSolver(RationalMatrix.zeros(0, len(q.paths()) ** 2), basis.flat_rows())
        spans_match = len(ops) == len(basis) and all(
            solver.solve(op.flat_row()) is not None for op in ops
        )
        payload["oracle"] = {"dim": len(ops), "spansMatch": spans_match}
    if args.verify:
        members = [
            {
                "label": label,
                "isDerivation": is_derivation(op),
                "violations": len(check_coefficient_conditions(op)),
            }
            for label, op in zip(labels, basis.operators)
        ]
        identities = verify_bracket_identities(q)
        sign = inner_edge_bracket_sign(q)
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
