"""Seeded inputs and job lists for the four workloads.

Everything random is drawn from ``random.Random(seed)`` and reaches the
program only as a ``.quiver`` file.  Alongside each file the benchmark
keeps its own facts about the quiver (path counts by dynamic
programming in topological order, components, faces traced from the
rotation), which the output checks compare against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FIXTURES = (
    "a2",
    "a3",
    "a4",
    "a5",
    "disconnected",
    "grid2x2",
    "k2",
    "k3",
    "loop",
    "single_vertex",
    "torus_k4",
    "triangle_tails",
)
CLI_COMMANDS = (("check",), ("report",), ("hh1",), ("hh1", "--oracle"), ("derivations",))

# hh1-structure: random connected acyclic quivers drawn at fixed sizes,
# (|V|, |E|, |P|, dim Der, HH1 dim, genus).  Fixing the sizes keeps the
# work per seed comparable, so the seed varies the shape, not the cost.
HH1_SLOTS = (
    (5, 7, 17, 23, 7, 0),
    (5, 7, 17, 23, 7, 1),
    (4, 6, 17, 26, 10, 1),
    (6, 8, 22, 28, 7, 0),
    (6, 8, 22, 28, 7, 1),
)
HH1_DRAWS = 2  # quivers drawn per slot
KRONECKER = (4, 5)
# verify-oracle: hh1 --oracle on seeded quivers of 40-60 paths
ORACLE_SLOTS = ((9, 10, 40, 43, 4, 1),)
# report-wide: k x k grids, and the face count of their random
# rotations (the most frequent one), which sets the size of C_ca and B
GRIDS = ((6, 4), (8, 6))


@dataclass
class QuiverData:
    """A quiver as the benchmark sees it, independent of the package."""

    name: str
    vertices: list[str]
    arrows: list[tuple[str, int, int]]  # (name, tail index, head index)
    rotation: list[list[tuple[int, int]]] | None = None  # per vertex: (arrow, end)
    outer: int | None = None

    def text(self) -> str:
        lines = [f"quiver {self.name}", "vertex " + " ".join(self.vertices)]
        v = self.vertices
        lines += [f"arrow {a} {v[t]} {v[h]}" for a, t, h in self.arrows]
        if self.rotation is not None:
            for i, order in enumerate(self.rotation):
                darts = [self.arrows[a][0] + ("+" if end == 0 else "-") for a, end in order]
                lines.append(" ".join(["rotation", v[i], *darts]))
        if self.outer is not None:
            lines.append(f"outer {self.outer}")
        return "\n".join(lines) + "\n"


def parse_fixture(text: str) -> QuiverData:
    """Minimal reader for the shipped fixtures (well-formed input only)."""
    name, vertices, arrows, rot, outer = "", [], [], {}, None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key, args = tokens[0], tokens[1:]
        if key == "quiver":
            name = args[0]
        elif key == "vertex":
            vertices += args
        elif key == "arrow":
            arrows.append((args[0], vertices.index(args[1]), vertices.index(args[2])))
        elif key == "rotation":
            names = [a[0] for a in arrows]
            rot[vertices.index(args[0])] = [
                (names.index(d[:-1]), 0 if d[-1] == "+" else 1) for d in args[1:]
            ]
        elif key == "outer":
            outer = int(args[0])
    rotation = None
    if rot or not arrows:
        rotation = [rot.get(i, []) for i in range(len(vertices))]
    return QuiverData(name, vertices, arrows, rotation, outer)


# ----------------------------------------------------------------------
# facts computed by the benchmark


def topological_order(n: int, arrows) -> list[int] | None:
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for _a, t, h in arrows:
        indeg[h] += 1
        out[t].append(h)
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for h in out[v]:
            indeg[h] -= 1
            if indeg[h] == 0:
                ready.append(h)
    return order if len(order) == n else None


def path_counts(n: int, arrows) -> list[list[int]] | None:
    """N[s][t] = number of paths from s to t (trivial paths included);
    None for a quiver with a directed cycle."""
    order = topological_order(n, arrows)
    if order is None:
        return None
    out = [[] for _ in range(n)]
    for _a, t, h in arrows:
        out[t].append(h)
    counts = [[0] * n for _ in range(n)]
    for s in range(n):
        row = counts[s]
        row[s] = 1
        for v in order:
            if row[v]:
                for h in out[v]:
                    row[h] += row[v]
    return counts


def components(n: int, arrows) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _a, t, h in arrows:
        parent[find(t)] = find(h)
    return len({find(v) for v in range(n)})


def face_count(q: QuiverData) -> int:
    """Faces of the rotation system: walk out along a dart, continue from
    the rotation successor of the opposite dart; isolated vertices bound
    one empty face each."""
    succ = {}
    for order in q.rotation:
        for i, d in enumerate(order):
            succ[d] = order[(i + 1) % len(order)]
    seen, faces = set(), 0
    for start in sorted(succ):
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = succ[(d[0], 1 - d[1])]
    return faces + sum(1 for order in q.rotation if not order)


def facts(q: QuiverData) -> dict:
    """Sizes and invariants the output checks compare against."""
    n, arrows = len(q.vertices), q.arrows
    out = {
        "V": n,
        "E": len(arrows),
        "components": components(n, arrows),
        "rotation": q.rotation is not None,
    }
    out["connected"] = out["components"] <= 1
    counts = path_counts(n, arrows)
    out["acyclic"] = counts is not None
    if counts is not None:
        parallel = sum(counts[t][h] for _a, t, h in arrows)
        out["P"] = sum(map(sum, counts))
        out["dim_der"] = out["P"] - n + parallel
        out["happel"] = 1 - n + parallel
        out["al"] = parallel - len(arrows)
    if q.rotation is not None and out["connected"]:
        out["F"] = face_count(q)
        chi = n - len(arrows) + out["F"]
        out["genus"] = (2 - chi) // 2
    return out


# ----------------------------------------------------------------------
# generators


def random_dag(rng: random.Random, n: int, m: int) -> list[tuple[str, int, int]]:
    """Connected acyclic quiver: a random spanning tree plus extra arrows,
    every arrow pointing forward in a random vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    pairs = []
    for k in range(1, n):
        pairs.append((order[rng.randrange(k)], order[k]))
    while len(pairs) < m:
        i, j = sorted(rng.sample(range(n), 2))
        pairs.append((order[i], order[j]))
    rng.shuffle(pairs)
    return [(f"a{i}", *sorted(p, key=rank.get)) for i, p in enumerate(pairs)]


def random_rotation(rng: random.Random, n: int, arrows) -> list[list[tuple[int, int]]]:
    darts = [[] for _ in range(n)]
    for i, (_a, t, h) in enumerate(arrows):
        darts[t].append((i, 0))
        darts[h].append((i, 1))
    for d in darts:
        rng.shuffle(d)
    return darts


def sized_quiver(rng: random.Random, name: str, slot) -> QuiverData:
    """Rejection-sample a quiver with exactly the slot's sizes."""
    n, m, paths, dim_der, dim_hh1, genus = slot
    for _ in range(20000):
        arrows = random_dag(rng, n, m)
        q = QuiverData(name, [f"v{i}" for i in range(n)], arrows)
        f = facts(q)
        if (f["P"], f["dim_der"], f["happel"]) != (paths, dim_der, dim_hh1):
            continue
        for _ in range(200):
            q.rotation = random_rotation(rng, n, arrows)
            if facts(q)["genus"] == genus:
                return q
    raise RuntimeError(f"no quiver found for slot {slot}")


def kronecker(m: int) -> QuiverData:
    arrows = [(f"p{i}", 0, 1) for i in range(1, m + 1)]
    rotation = [[(i, 0) for i in range(m)], [(i, 1) for i in reversed(range(m))]]
    return QuiverData(f"kronecker{m}", ["v1", "v2"], arrows, rotation)


def grid(k: int, rng: random.Random | None = None) -> QuiverData:
    """k x k grid with checkerboard orientation (every vertex a source or
    a sink, so every path has length <= 1).  Without ``rng`` the rotation
    is the planar one; with it, each vertex's darts are shuffled."""
    def vid(i, j):
        return i * k + j

    vertices = [f"x{i}_{j}" for i in range(k) for j in range(k)]
    arrows = []
    at = [{} for _ in vertices]  # vertex -> direction -> dart
    for i in range(k):
        for j in range(k):
            for di, dj in ((0, 1), (1, 0)):
                i2, j2 = i + di, j + dj
                if i2 == k or j2 == k:
                    continue
                u, v, du = (i, j), (i2, j2), (di, dj)
                if (i + j) % 2:
                    u, v, du = v, u, (-di, -dj)
                a = len(arrows)
                arrows.append((f"e{a}", vid(*u), vid(*v)))
                at[vid(*u)][du] = (a, 0)
                at[vid(*v)][(-du[0], -du[1])] = (a, 1)
    ccw = ((0, 1), (-1, 0), (0, -1), (1, 0))
    rotation = [[d[x] for x in ccw if x in d] for d in at]
    if rng is not None:
        for order in rotation:
            rng.shuffle(order)
    name = f"grid{k}" + ("" if rng is None else "_random")
    return QuiverData(name, vertices, arrows, rotation)


def random_grid(k: int, rng: random.Random, faces: int) -> QuiverData:
    """The k x k grid with random rotations that trace ``faces`` faces."""
    while True:
        q = grid(k, rng)
        if face_count(q) == faces:
            return q


def malformed(rng: random.Random, fixtures: dict[str, str]) -> list[tuple[str, bytes]]:
    """Three broken files made from seeded picks among the embedded
    fixtures: an unknown directive, a rotation that misses a dart, and a
    non-UTF-8 byte in a comment."""
    embedded = sorted(n for n, t in fixtures.items() if "arrow" in t and "rotation" in t)

    lines = fixtures[rng.choice(embedded)].splitlines()
    pos = rng.randrange(1, len(lines) + 1)
    unknown = lines[:pos] + ["frobnicate v1"] + lines[pos:]

    lines = fixtures[rng.choice(embedded)].splitlines()
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith("rotation") and len(line.split()) > 2])
    tokens = lines[i].split()
    del tokens[rng.randrange(2, len(tokens))]
    lines[i] = " ".join(tokens)

    text = fixtures[rng.choice(embedded)].encode()
    cut = text.index(b"\n") + 1
    return [
        ("unknown_directive", ("\n".join(unknown) + "\n").encode()),
        ("invalid_rotation", ("\n".join(lines) + "\n").encode()),
        ("non_utf8", text[:cut] + b"# caf\xe9\n" + text[cut:]),
    ]


# ----------------------------------------------------------------------
# job lists


@dataclass
class Job:
    """One CLI invocation: ``argv`` names the input file last."""

    id: str
    argv: list[str]
    facts: dict
    expect_rc: int
    malformed: bool = False
    planar_grid: int | None = None

    def to_json(self) -> dict:
        return {"id": self.id, "argv": self.argv}


def _expected_rc(command: str, f: dict) -> int:
    if command == "check":
        return 0
    if not f["acyclic"]:
        return 1
    if command in ("report", "hh1") and not f["connected"]:
        return 1
    return 0


def build(workload: str, seed: int, root: Path, outdir: Path) -> list[Job]:
    """Write the workload's input files under ``outdir`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    fixture_dir = root / "quivers"
    fixtures = {n: (fixture_dir / f"{n}.quiver").read_text(encoding="utf-8") for n in FIXTURES}
    jobs: list[Job] = []

    def emit(name: str, q: QuiverData, argv_prefix, **kw):
        path = outdir / f"{name}.quiver"
        path.write_text(q.text(), encoding="utf-8")
        f = facts(q)
        jobs.append(
            Job(
                f"{' '.join(argv_prefix)} {name}",
                [*argv_prefix, str(path)],
                f,
                _expected_rc(argv_prefix[0], f),
                **kw,
            )
        )

    def fixture_job(name: str, argv_prefix):
        f = facts(parse_fixture(fixtures[name]))
        jobs.append(
            Job(
                f"{' '.join(argv_prefix)} {name}",
                [*argv_prefix, str(fixture_dir / f"{name}.quiver")],
                f,
                _expected_rc(argv_prefix[0], f),
            )
        )

    if workload == "cli-fixtures":
        for name in FIXTURES:
            for command in CLI_COMMANDS:
                fixture_job(name, command)
        for name, data in malformed(rng, fixtures):
            path = outdir / f"{name}.quiver"
            path.write_bytes(data)
            jobs.append(Job(f"check {name}", ["check", str(path)], {}, 2, malformed=True))
    elif workload == "hh1-structure":
        for m in KRONECKER:
            emit(f"kronecker{m}", kronecker(m), ("hh1",))
        for i, slot in enumerate(HH1_SLOTS):
            for j in range(HH1_DRAWS):
                name = f"random{i}_{j}"
                emit(name, sized_quiver(rng, name, slot), ("hh1",))
    elif workload == "verify-oracle":
        for name in FIXTURES:
            fixture_job(name, ("derivations", "--oracle", "--verify"))
        for i, slot in enumerate(ORACLE_SLOTS):
            emit(f"oracle{i}", sized_quiver(rng, f"oracle{i}", slot), ("hh1", "--oracle"))
    elif workload == "report-wide":
        for k, faces in GRIDS:
            emit(f"grid{k}", grid(k), ("report",), planar_grid=k)
            emit(f"grid{k}_random", random_grid(k, rng, faces), ("report",))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


WORKLOADS = ("cli-fixtures", "hh1-structure", "verify-oracle", "report-wide")
