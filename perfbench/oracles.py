"""Independent checks of foliate's output files.

Plain numpy and Python over the documented file formats; nothing here
imports foliate.  Each check returns a list of problems, empty when the
outputs agree with the oracle.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

STRIP_HALFWIDTH = 0.5


def read_pattern(path: Path) -> dict:
    obj = json.loads(path.read_text())
    return {
        "coords": np.asarray(obj["points"], dtype=float).reshape(-1, obj["dimension"]),
        "extents": np.asarray(obj["domain"]["extents"], dtype=float),
        "buffer": float(obj["domain"].get("buffer", 0.0)),
        "metadata": obj.get("metadata", {}),
    }


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_map(path: Path) -> np.ndarray:
    """Image column of a shift-map-schema JSON file, -1 where censored."""
    rows = json.loads(path.read_text())
    image = np.full(len(rows), -1, dtype=np.int64)
    for row in rows:
        if row["image"] is not None:
            image[row["id"]] = row["image"]
    return image


# -- shifts -------------------------------------------------------------


def mutual_nn_pairs(coords: np.ndarray, extents: np.ndarray, chunk: int = 256) -> int:
    """Number of pairs that are each other's unique nearest neighbour on a
    torus, by brute force over all pairs."""
    n = len(coords)
    nn = np.empty(n, dtype=np.int64)
    unique = np.empty(n, dtype=bool)
    for lo in range(0, n, chunk):
        d2 = np.zeros((min(chunk, n - lo), n))
        for k, ext in enumerate(extents):
            d = np.abs(coords[lo : lo + chunk, k, None] - coords[None, :, k]) % ext
            d = np.minimum(d, ext - d)
            d2 += d * d
        d2[np.arange(d2.shape[0]), np.arange(lo, lo + d2.shape[0])] = np.inf
        best = d2.min(axis=1)
        nn[lo : lo + chunk] = d2.argmin(axis=1)
        unique[lo : lo + chunk] = (d2 == best[:, None]).sum(axis=1) == 1
    ids = np.arange(n)
    mutual = unique & unique[nn] & (nn[nn] == ids)
    return int(mutual.sum()) // 2


def strip_images(coords: np.ndarray, extents: np.ndarray, buffer: float) -> np.ndarray:
    """Strip shift on a window: the lexicographically least point of
    (x1, inf) x [x2 - 1/2, x2 + 1/2]; -1 where censored."""
    width, height = extents
    n = len(coords)
    by_y = np.argsort(coords[:, 1], kind="stable")
    ys = coords[by_y, 1]
    image = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        x1, x2 = coords[i]
        if x2 - STRIP_HALFWIDTH < 0.0 or x2 + STRIP_HALFWIDTH > height:
            continue
        lo = np.searchsorted(ys, x2 - STRIP_HALFWIDTH - 1e-9, side="left")
        hi = np.searchsorted(ys, x2 + STRIP_HALFWIDTH + 1e-9, side="right")
        cand = by_y[lo:hi]
        cand = cand[(coords[cand, 0] > x1) & (np.abs(coords[cand, 1] - x2) <= STRIP_HALFWIDTH)]
        if cand.size:
            image[i] = cand[np.lexsort((coords[cand, 1], coords[cand, 0]))[0]]
        elif width - x1 >= buffer:
            image[i] = i
    return image


def next_row_images(coords: np.ndarray, extents: np.ndarray, grid_shift) -> np.ndarray:
    """Next-row shift on a 2-d grid torus: next column, least row >= the
    source row, rows wrapping; -1 where the target column is empty."""
    lat = np.rint(coords - np.asarray(grid_shift, dtype=float)).astype(np.int64)
    width, height = (int(e) for e in extents)
    key = lat[:, 0] * height + lat[:, 1]
    order = np.argsort(key, kind="stable")
    skey = key[order]
    target = (lat[:, 0] + 1) % width
    j = np.searchsorted(skey, target * height + lat[:, 1], side="left")
    hit = (j < len(skey)) & (skey[np.minimum(j, len(skey) - 1)] // height == target)
    j0 = np.searchsorted(skey, target * height, side="left")
    wrap = (j0 < len(skey)) & (skey[np.minimum(j0, len(skey) - 1)] // height == target)
    pick = np.where(hit, j, j0)
    return np.where(hit | wrap, order[np.minimum(pick, len(skey) - 1)], -1)


# -- graph structure ----------------------------------------------------


def component_labels(image: np.ndarray) -> np.ndarray:
    """Undirected components of a partial functional graph (union-find);
    each point is labelled by the least id in its component."""
    parent = list(range(len(image)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in enumerate(image.tolist()):
        if y >= 0:
            a, b = find(x), find(y)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return np.array([find(x) for x in range(len(image))], dtype=np.int64)


def eventual_labels(image: np.ndarray) -> np.ndarray:
    """Foil labels of a total map: x and y share a foil iff their iterates
    meet, i.e. iff F^M(x) == F^M(y) once M exceeds every depth."""
    f = image.copy()
    steps = 1
    while steps <= len(image):
        f = f[f]
        steps *= 2
    return f


def orbit_labels(perm: np.ndarray) -> np.ndarray:
    """Least id on each point's orbit under a permutation."""
    label = np.arange(len(perm))
    step = perm.copy()
    span = 1
    while span < len(perm):
        label = np.minimum(label, label[step])
        step = step[step]
        span *= 2
    return label


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape:
        return False
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def is_permutation(table: np.ndarray) -> bool:
    return bool(np.array_equal(np.sort(table), np.arange(len(table))))


def size_multiset(labels: np.ndarray) -> list[int]:
    return sorted(np.unique(labels, return_counts=True)[1].tolist())


# -- per-workload checks ------------------------------------------------


def check_torus_verify(out: Path) -> list[str]:
    """Every identity and transport row is reported exact on a torus."""
    rows = read_csv(out / "verify.csv")
    if not rows:
        return ["verify.csv is empty"]
    return [f"{r['name']} not exact" for r in rows if r["exact"] != "true"]


def check_mnn_run(out: Path, patterns: list[Path]) -> list[str]:
    """components.csv (realization 0) against a brute-force mutual
    nearest-neighbour pairing; the point total against the patterns."""
    problems = check_torus_verify(out)
    first = read_pattern(patterns[0])
    n = len(first["coords"])
    pairs = mutual_nn_pairs(first["coords"], first["extents"])
    sizes = sorted(int(r["size"]) for r in read_csv(out / "components.csv"))
    if sizes != [1] * (n - 2 * pairs) + [2] * pairs:
        problems.append(f"components.csv disagrees with {pairs} mutual pairs among {n} points")
    total = sum(len(read_pattern(p)["coords"]) for p in patterns)
    used = json.loads((out / "verify.json").read_text())["reports"][0]["n_points_used"]
    if used != total:
        problems.append(f"verify.json uses {used} points, the patterns hold {total}")
    return problems


def check_strip_run(out: Path, patterns: list[Path]) -> list[str]:
    """components.csv and the full ladder rung (both realization 0) against
    a brute-force strip shift and union-find components."""
    problems = []
    first = read_pattern(patterns[0])
    image = strip_images(first["coords"], first["extents"], first["buffer"])
    sizes = size_multiset(component_labels(image))
    got = sorted(int(r["size"]) for r in read_csv(out / "components.csv"))
    if got != sizes:
        problems.append("components.csv disagrees with the strip oracle")
    with open(out / "ladder.csv", newline="") as fh:
        rungs = {row[0]: row for row in csv.reader(fh) if row}
    full = rungs.get("1.0")
    want = [str(len(image)), str(len(sizes)), str(max(sizes, default=0))]
    if full is None or full[1:4] != want:
        problems.append(f"ladder rung 1.0 is {full}, oracle gives {want}")
    total = sum(len(read_pattern(p)["coords"]) for p in patterns)
    used = json.loads((out / "verify.json").read_text())["reports"][0]["n_points_used"]
    if used != total:
        problems.append(f"verify.json uses {used} points, the patterns hold {total}")
    return problems


def check_grid_foliate(out: Path, pattern: Path) -> list[str]:
    """Shift map against a next-row oracle; components and foils against
    union-find and iterate meeting; f_perp and h_dense are permutations
    whose orbits are exactly the foils and the components."""
    pat = read_pattern(pattern)
    want = next_row_images(pat["coords"], pat["extents"], pat["metadata"]["grid_shift"])
    image = read_map(out / "shiftmap.json")
    if not np.array_equal(image, want):
        return [f"shiftmap.json differs from the next-row oracle at {int((image != want).sum())} points"]
    problems = []
    fol = json.loads((out / "foliation.json").read_text())
    comp = np.asarray(fol["per_point"]["component"])
    foil = np.asarray(fol["per_point"]["foil"])
    comps = component_labels(image)
    if not same_partition(comp, comps):
        problems.append("foliation.json components differ from union-find")
    if (image >= 0).all() and not same_partition(foil, eventual_labels(image)):
        problems.append("foliation.json foils differ from iterate meeting")
    if len(read_csv(out / "components.csv")) != len(np.unique(comps)):
        problems.append("components.csv row count differs from union-find")
    for name, labels in (("f_perp", foil), ("h_dense", comp)):
        table = read_map(out / f"{name}.json")
        if not is_permutation(table):
            problems.append(f"{name}.json is not a permutation")
        elif not same_partition(orbit_labels(table), labels):
            problems.append(f"{name}.json orbits differ from the {'foils' if name == 'f_perp' else 'components'}")
    return problems
