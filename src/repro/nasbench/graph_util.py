"""Graph utilities for cell DAGs: reachability, pruning, canonical hash.

The canonical hash is a faithful reimplementation of NASBench-101's
``graph_util.hash_module`` — an iterated neighbourhood-hashing scheme
(similar in spirit to Weisfeiler-Lehman) that is invariant to vertex
reordering, so isomorphic cells deduplicate to one database entry.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "is_upper_triangular",
    "num_edges",
    "reachable_from",
    "reaching_to",
    "kept_vertices",
    "hash_module",
    "permute_matrix",
    "longest_path_length",
    "topological_layers",
]


def is_upper_triangular(matrix: np.ndarray) -> bool:
    """True if ``matrix`` has no entries on or below the diagonal."""
    return not any(any(row[: i + 1]) for i, row in enumerate(matrix.tolist()))


def num_edges(matrix: np.ndarray) -> int:
    """Number of edges in the adjacency matrix."""
    return int(np.sum(matrix))


def reachable_from(matrix: np.ndarray, start: int) -> set[int]:
    """Vertices reachable from ``start`` (inclusive) following edges."""
    rows = matrix.tolist()
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w, edge in enumerate(rows[v]):
            if edge and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def reaching_to(matrix: np.ndarray, end: int) -> set[int]:
    """Vertices from which ``end`` is reachable (inclusive)."""
    return reachable_from(matrix.T, end)


def kept_vertices(matrix: np.ndarray) -> list[int] | None:
    """Ascending indices of the vertices on some input->output path.

    ``None`` when no path from the input vertex (0) to the output vertex
    (last) exists — such specs are invalid in NASBench-101.  Depends on
    the matrix alone; the ops only follow the kept indices.
    """
    n = matrix.shape[0]
    if n == 0:
        return None
    forward = reachable_from(matrix, 0)
    backward = reaching_to(matrix, n - 1)
    keep = forward & backward
    # If the output is unreachable from the input, one of the two sets
    # misses an endpoint and the spec is invalid.
    if 0 not in keep or (n - 1) not in keep:
        return None
    return sorted(keep)


def hash_module(matrix: np.ndarray, labeling: list[int]) -> str:
    """Isomorphism-invariant fingerprint of a labelled DAG.

    Reimplements NASBench-101's iterated hashing: each vertex starts
    from a hash of ``(out_degree, in_degree, label)`` and is repeatedly
    re-hashed together with the sorted hashes of its in- and
    out-neighbourhoods, ``V`` times; the fingerprint is the hash of the
    sorted final vertex hashes.
    """
    n = matrix.shape[0]
    if len(labeling) != n:
        raise ValueError(f"labeling length {len(labeling)} != vertex count {n}")
    in_deg = np.sum(matrix, axis=0).tolist()
    out_deg = np.sum(matrix, axis=1).tolist()
    rows = matrix.tolist()
    preds = [[w for w in range(n) if rows[w][v]] for v in range(n)]
    succs = [[w for w in range(n) if rows[v][w]] for v in range(n)]
    hashes = [
        hashlib.md5(str((out_deg[v], in_deg[v], labeling[v])).encode()).hexdigest()
        for v in range(n)
    ]
    for _ in range(n):
        new_hashes = []
        for v in range(n):
            in_nb = sorted(hashes[w] for w in preds[v])
            out_nb = sorted(hashes[w] for w in succs[v])
            material = "".join(in_nb) + "|" + "".join(out_nb) + "|" + hashes[v]
            new_hashes.append(hashlib.md5(material.encode()).hexdigest())
        hashes = new_hashes
    return hashlib.md5(str(sorted(hashes)).encode()).hexdigest()


def permute_matrix(
    matrix: np.ndarray, ops: list[str], permutation: list[int]
) -> tuple[np.ndarray, list[str]]:
    """Relabel vertices: vertex ``v`` becomes ``permutation[v]``.

    Used by isomorphism tests: hashes of permuted graphs must agree.
    """
    n = matrix.shape[0]
    if sorted(permutation) != list(range(n)):
        raise ValueError("permutation must be a bijection on vertices")
    permuted = np.zeros_like(matrix)
    new_ops: list[str] = [""] * n
    for src in range(n):
        new_ops[permutation[src]] = ops[src]
        for dst in range(n):
            if matrix[src, dst]:
                permuted[permutation[src], permutation[dst]] = 1
    return permuted, new_ops


def longest_path_length(matrix: np.ndarray) -> int:
    """Number of vertices on the longest input->output path.

    For an upper-triangular DAG this is a single forward DP pass.
    Returns 0 when the output is unreachable.
    """
    n = matrix.shape[0]
    dist = [-(10**9)] * n
    dist[0] = 1
    for v in range(n):
        if dist[v] < 0:
            continue
        for w in range(v + 1, n):
            if matrix[v, w]:
                dist[w] = max(dist[w], dist[v] + 1)
    return max(dist[n - 1], 0)


def topological_layers(matrix: np.ndarray) -> list[int]:
    """Layer index (longest distance from input, 0-based) per vertex."""
    n = matrix.shape[0]
    layer = [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            if matrix[v, w]:
                layer[w] = max(layer[w], layer[v] + 1)
    return layer
