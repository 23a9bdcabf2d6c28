"""Committed mutants: each independent check still catches the fault it
exists for.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
    python tests/mutants.py --list       # names and reasons

Each mutant names a file under src/, an exact snippet in it, the
replacement, the tests that must catch it, and why.  For each one the
script copies src/ to a temporary directory, applies the one replacement
there, and runs the named tests against that copy (pytest's pythonpath
pointed at it), one test process at a time; nothing under src/ changes in
place.  It fails when a snippet is not found exactly once, so a refactor
that removes a snippet has to update this list, and when the named tests
pass, so a check that stops catching its fault is seen.  A mutant leaves
the list only when the code it mutates is deleted.  Standard library
only; pytest runs in the child processes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name file snippet replacement tests reason")

_BRACKETS = "quiverdiff/_brackets.py"
_COHOMOLOGY = "quiverdiff/cohomology.py"
_EMBEDDING = "quiverdiff/embedding.py"
_LINALG = "quiverdiff/linalg.py"
_QUIVER = "quiverdiff/quiver.py"
_T = "tests/test_cohomology.py::"
_D = "tests/test_derivations.py::"
_L = "tests/test_linalg.py::"
_Q = "tests/test_quiver.py::"
# the checks of the edge-edge bracket: the --verify identities against matrix
# products, and the HH1 table against the all-pairs loop on Path-keyed labels
_BRACKET_CHECKS = (
    _D + "test_bracket_identities_on_fixtures",
    _D + "test_bracket_checks_match_the_all_pairs_references",
    _T + "test_structure_table_matches_the_all_pairs_loop",
)

MUTANTS = (
    Mutant(
        "hh1-basis-closed-walk-dropped",
        _COHOMOLOGY,
        " and not _open_face(q, faces)\n",
        "\n",
        (
            _T + "test_dependent_representative_raises",
            _T + "test_injected_dependence_names_the_solver_s_row",
        ),
        "an open face net can lie in row(C_va) and still give the face rows full rank",
    ),
    Mutant(
        "hh1-basis-face-rank-dropped",
        _COHOMOLOGY,
        "certified = face_rank == len(faces) - 1 == len(rows) - 2 * g",
        "certified = len(faces) - 1 == len(rows) - 2 * g",
        (
            _T + "test_dependent_representative_raises",
            _T + "test_a_copied_face_net_names_the_later_face",
            _T + "test_injected_dependence_names_the_solver_s_row",
        ),
        "closed faces with a zero or a repeated net are dependent on their own",
    ),
    Mutant(
        "hh1-basis-extra-count-dropped",
        _COHOMOLOGY,
        "certified = face_rank == len(faces) - 1 == len(rows) - 2 * g",
        "certified = face_rank == len(faces) - 1",
        (_T + "test_injected_dependence_names_the_solver_s_row",),
        "a unit on a pivot column is not triangular against row(C_gamma)",
    ),
    Mutant(
        "extra-pivots-not-reversed",
        _COHOMOLOGY,
        "        flipped = [{n - 1 - k: x for k, x in row.items()} for row in c_va._entries"
        " + c_ca._entries]\n"
        "        last = {n - 1 - p for p in EchelonBasis.spanning(n, flipped).pivots}\n",
        "        flipped = [dict(row) for row in c_va._entries + c_ca._entries]\n"
        "        last = set(EchelonBasis.spanning(n, flipped).pivots)\n",
        (
            _T + "test_hh1_basis_torus_labels_pinned",
            _T + "test_extra_labels_are_the_greedy_unit_complement",
        ),
        "the Extra(k) labels are where the vectors of row(C_gamma) end, not where they start",
    ),
    Mutant(
        "extra-span-without-c-ca",
        _COHOMOLOGY,
        "for row in c_va._entries + c_ca._entries]",
        "for row in c_va._entries]",
        (
            _T + "test_hh1_basis_torus_labels_pinned",
            _T + "test_extra_labels_are_the_greedy_unit_complement",
        ),
        "the Extra units complete row(C_va) + row(C_ca), not row(C_va) alone",
    ),
    Mutant(
        "rank-b-gamma-from-rank-c-va",
        _COHOMOLOGY,
        "rank_b_gamma=rank_ca,",
        "rank_b_gamma=rank_va,",
        (_T + "test_spaces_disjoint_matches_the_intersections_and_the_product",),
        "rank B_gamma = rank C_ca, as B_gamma = C_ca C_ca^T",
    ),
    Mutant(
        "trace-faces-net-sign-flipped",
        _EMBEDDING,
        "net[k] = net.get(k, 0) + (1 if dart_end(d) == TAIL else -1)",
        "net[k] = net.get(k, 0) + (1 if (dart_end(d) == TAIL) != (d == start) else -1)",
        (
            "tests/test_embedding.py",
            _T + "test_report_verdicts_hold_everywhere",
        ),
        "each face net counts its start dart with the wrong sign",
    ),
    Mutant(
        "trace-faces-walk-skips-a-dart",
        _EMBEDDING,
        "net[k] = net.get(k, 0) + (1 if dart_end(d) == TAIL else -1)",
        "net[k] = net.get(k, 0) + (0 if d == start else 1 if dart_end(d) == TAIL else -1)",
        (
            "tests/test_embedding.py",
            _T + "test_report_verdicts_hold_everywhere",
        ),
        "each face net leaves its start dart out",
    ),
    Mutant(
        "report-closed-walk-check-dropped",
        _COHOMOLOGY,
        "    if open_face := _open_face(q, faces):\n        raise InternalCheckError(open_face)\n",
        "",
        (
            _T + "test_a_face_net_with_a_sign_flipped_is_refused",
            _T + "test_a_face_walk_that_skips_a_dart_is_refused",
            _T + "test_the_circulation_check_refuses_exactly_a_nonzero_product",
        ),
        "a face that is no closed walk is a tracing defect the report must refuse",
    ),
    Mutant(
        "bracket-pairs-second-term-doubled",
        _BRACKETS,
        "out[r, u] = out.get((r, u), _ZERO) - c * d",
        "out[r, u] = out.get((r, u), _ZERO) - 2 * c * d",
        _BRACKET_CHECKS,
        "[D_{r,s}, D_{p,t}] has D_{r, D_{p,t}(s)} once, not twice",
    ),
    Mutant(
        "bracket-pairs-sign-flipped",
        _BRACKETS,
        "out[p, u] = out.get((p, u), _ZERO) + c * d\n"
        "            if p in s:\n"
        "                for u in _splices(p, t, s):\n"
        "                    out[r, u] = out.get((r, u), _ZERO) - c * d",
        "out[p, u] = out.get((p, u), _ZERO) - c * d\n"
        "            if p in s:\n"
        "                for u in _splices(p, t, s):\n"
        "                    out[r, u] = out.get((r, u), _ZERO) + c * d",
        _BRACKET_CHECKS,
        "the edge-edge bracket written as [D_{p,t}, D_{r,s}]",
    ),
    Mutant(
        "bracket-index-without-arrows",
        _BRACKETS,
        "arrow_of[r].append(i)",
        "pass",
        _BRACKET_CHECKS,
        "a pair where only an arrow of the right side runs along the left's path can be nonzero",
    ),
    Mutant(
        "bracket-index-without-paths",
        _BRACKETS,
        "along[x].append(i)",
        "pass",
        _BRACKET_CHECKS,
        "a pair where only an arrow of the left side runs along the right's path can be nonzero",
    ),
    Mutant(
        "report-rank-count-cross-check-removed",
        _COHOMOLOGY,
        "    if rank_stack != rank_va + rank_ca:\n"
        '        raise InternalCheckError("subspace intersection disagrees with rank count")\n',
        "",
        (_T + "test_report_cross_check_bites_on_a_nonempty_intersection",),
        "disjoint spaces make the ranks add up; a stack that says otherwise must raise",
    ),
    Mutant(
        "report-stack-certificate-trusted-one-below-the-bound",
        _COHOMOLOGY,
        "if _modular_rank(c_gamma._entries) == bound_va + bound_ca:",
        "if _modular_rank(c_gamma._entries) >= bound_va + bound_ca - 1:",
        (_T + "test_report_ranks_equal_three_exact_ranks_on_two_block_stacks",),
        "one short of the blocks' bounds, the stack's rank mod p proves none of the three ranks",
    ),
    Mutant(
        "report-vertex-row-sum-check-dropped",
        _COHOMOLOGY,
        "bool(c_va.num_rows and _sums_to_zero(c_va._entries))",
        "bool(c_va.num_rows)",
        (_T + "test_report_ranks_equal_three_exact_ranks_on_two_block_stacks",),
        "a block bounds its rank by one below its row count only when its rows sum to zero",
    ),
    Mutant(
        "certified-rank-row-sum-check-dropped",
        _LINALG,
        "1 for g in groups if g and _sums_to_zero(rows[i] for i in g)",
        "1 for g in groups if g",
        (_L + "test_certified_rank_falls_back_when_the_rank_drops_mod_p",),
        "only a group whose rows sum to zero gives a vector of the left kernel",
    ),
    Mutant(
        "certified-rank-trusted-below-the-bound",
        _LINALG,
        "    if _modular_rank(rows) == bound:\n        return bound\n",
        "    rank = _modular_rank(rows)\n    if rank is not None and rank <= bound:\n        return rank\n",
        (_L + "test_certified_rank_falls_back_when_the_rank_drops_mod_p",),
        "the rank mod p is only a lower bound: below the left-kernel bound it proves nothing",
    ),
    Mutant(
        "parallel-path-counts-without-topological-sort",
        _QUIVER,
        "for v in sorted(counts, key=rank):",
        "for v in counts:",
        (
            _Q + "test_path_counts_without_the_table_match_it",
            _T + "test_happel_dimension_matches_the_path_count_table",
        ),
        "a vertex passes its count on only once every path into it has been counted",
    ),
    Mutant(
        "num-paths-one-short",
        _QUIVER,
        "return sum(leaving)",
        "return sum(leaving) - 1",
        (_Q + "test_path_counts_without_the_table_match_it",),
        "|P| counts every path leaving every vertex, the trivial ones included",
    ),
    Mutant(
        "happel-dimension-skips-vertex-0",
        _COHOMOLOGY,
        "return 1 - q.num_vertices + sum(q.parallel_path_counts())",
        "return 1 - q.num_vertices + sum(\n"
        "        c for a, c in zip(q.arrows, q.parallel_path_counts()) if a.tail\n"
        "    )",
        (
            _T + "test_happel_dimension_table",
            _T + "test_happel_dimension_matches_the_path_count_table",
        ),
        "Happel's count sums the parallel paths of every arrow, those leaving vertex 0 too",
    ),
)


def apply(src: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy of src/ at ``src``; ValueError unless its
    snippet occurs exactly once."""
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.snippet)
    if found != 1:
        raise ValueError(f"{mutant.name}: snippet found {found} times in src/{mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run_tests(tests, mutant: Mutant | None = None) -> tuple[int, str]:
    """(pytest's exit code, its last line) for ``tests`` against a copy of
    src/, with ``mutant`` applied to the copy when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(src, mutant)
        argv = [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "-o", f"pythonpath={src}", *tests,
        ]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode, last or proc.stderr.strip()[-300:]


def run(mutant: Mutant) -> tuple[bool, str]:
    """(caught, what happened): the named tests against a mutated copy of src/."""
    try:
        code, last = run_tests(mutant.tests, mutant)
    except ValueError as exc:
        return False, str(exc)
    if code == 1:  # some named test failed: the mutant is caught
        return True, last
    if code == 0:
        return False, f"survived: the named tests pass ({last})"
    return False, f"pytest exit {code}: {last}"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.name}: {m.reason}")
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    # a named test that fails without any mutant would make every mutant look caught
    code, last = run_tests(sorted({t for m in chosen for t in m.tests}))
    if code != 0:
        print(f"FAILED  the named tests on an unmutated copy: pytest exit {code}: {last}")
        return 1
    failed = 0
    for m in chosen:
        caught, what = run(m)
        failed += not caught
        print(f"{'caught' if caught else 'FAILED'}  {m.name}: {what}", flush=True)
    took = time.perf_counter() - start
    print(f"{len(chosen) - failed} of {len(chosen)} mutants caught in {took:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
