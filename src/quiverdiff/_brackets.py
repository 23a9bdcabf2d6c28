"""The edge-edge bracket on EdgePair labels, shared by the HH1 table and
the derivations checks.

An EdgePair label (r, s) names D_{r,s}, r an arrow index and s the arrow
tuple of a path parallel to r; on an acyclic quiver s starts at r's tail,
so no Path is needed.  _splices is D_{r,s} on the arrow tuple of one path.
_bracket_pairs, the one edge-edge bracket, splices arrow tuples to write
[D_{r,s}, D_{p,t}] on those labels.  It is zero unless an arrow of one
side runs along a path of the other, and one arrow index,
_bracket_partners, lists those pairs.  Both callers read these names off
this module, so neither binds a copy of its own.
"""

from __future__ import annotations

from collections import defaultdict

from .linalg import _ZERO, Scalar


def _splices(r: int, s: tuple[int, ...], p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The arrow tuples of the terms of D_{r,s}(p), p and s arrow tuples: p with
    one occurrence of the arrow r replaced by s, once per occurrence."""
    return [p[:i] + s + p[i + 1 :] for i, x in enumerate(p) if x == r]


def _bracket_pairs(left, right) -> dict[tuple[int, tuple[int, ...]], Scalar]:
    """[sum c D_{r,s}, sum d D_{p,t}] on EdgePair labels (r, arrows of s), by
    the identity [D_{r,s}, D_{p,t}] = D_{p, D_{r,s}(t)} - D_{r, D_{p,t}(s)}."""
    out: dict[tuple[int, tuple[int, ...]], Scalar] = {}
    for (r, s), c in left.items():
        for (p, t), d in right.items():
            # D_{r,s}(t) vanishes unless r runs along t
            if r in t:
                for u in _splices(r, s, t):
                    out[p, u] = out.get((p, u), _ZERO) + c * d
            if p in s:
                for u in _splices(p, t, s):
                    out[r, u] = out.get((r, u), _ZERO) - c * d
    return {key: c for key, c in out.items() if c}


def _bracket_partners(labels) -> list[set[int]]:
    """For each i, the j for which the bracket of the EdgePair combinations
    labels[i] and labels[j] can be nonzero, read off one arrow index: an
    arrow of one runs along a path of the other."""
    arrow_of, along = defaultdict(list), defaultdict(list)
    for i, pairs in enumerate(labels):
        for r, s in pairs:
            arrow_of[r].append(i)
            for x in s:
                along[x].append(i)
    partners = []
    for pairs in labels:
        js: set[int] = set()
        for r, s in pairs:
            js.update(along[r])
            for x in s:
                js.update(arrow_of[x])
        partners.append(js)
    return partners
