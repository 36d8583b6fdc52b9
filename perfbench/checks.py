"""Plaintext references for the benchmark's correctness checks.

The secure tree is never compared with ``repro.tree.DecisionTree``: exact
gain ties occur (four splits tie at one node for ``basic-splits`` on seed
11) and the two trainers may break them differently while both trees are
valid.  Instead each secure tree is checked against itself:

* at every internal node, the chosen split has the best plaintext Gini gain
  (paper Eq. 5) over that node's training rows on the node's split grid,
  within the fixed-point tolerance ``GAIN_TOL``;
* every leaf predicts a majority class of its rows, and is one by the
  stopping rule of the tree's ``TreeParams``: it is at ``max_depth``, has
  fewer than ``min_samples_split`` rows, is pure, or no split on the grid
  gains more than ``min_gain`` (within ``GAIN_TOL``); an internal node is
  none of the first three;
* every secure prediction equals the plaintext walk of the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

#: Secure gains are 16-bit fixed point through Goldschmidt division; a
#: chosen split may trail the plaintext best by this much and still count
#: as the best.
GAIN_TOL = 2.0**-8


@dataclass
class Node:
    """A tree node with every value in the clear."""

    label: int | None = None  # leaves
    owner: int = -1
    feature: int = -1
    threshold: float = 0.0  # training-time split value (float compare)
    fixed_threshold: int | None = None  # enhanced: opened fixed-point value
    left: "Node | None" = None
    right: "Node | None" = None


def open_tree(model, fed) -> Node:
    """The released tree, with the enhanced protocol's hidden thresholds and
    leaf labels opened through the federation's MPC engine."""
    ctx = fed.context
    engine, f = ctx.engine, ctx.fx.f

    def convert(node) -> Node:
        if node.is_leaf:
            if node.prediction is not None:
                return Node(label=int(node.prediction))
            raw = engine.open_signed(node.hidden["label_share"])
            return Node(label=int(round(raw / (1 << f))))
        out = Node(owner=node.owner, feature=node.feature)
        grid = ctx.clients[node.owner].split_values[node.feature]
        if node.threshold is not None:
            out.threshold = float(node.threshold)
        else:
            out.fixed_threshold = engine.open_signed(node.hidden["threshold_share"])
            value = out.fixed_threshold / (1 << f)
            nearest = min(grid, key=lambda t: abs(t - value))
            if abs(nearest - value) > 2.0 / (1 << f):
                raise ValueError(f"opened threshold {value} is not on the split grid")
            out.threshold = float(nearest)
        out.left, out.right = convert(node.left), convert(node.right)
        return out

    return convert(model.root)


def walk(tree: Node, slices: list[np.ndarray], frac_bits: int) -> int:
    """Plaintext prediction for one row given as per-party slices.

    Basic trees compare floats, as Algorithm 4 does; enhanced trees compare
    the fixed-point encodings, as the secure comparison does.
    """
    node = tree
    while node.label is None:
        x = float(slices[node.owner][node.feature])
        if node.fixed_threshold is None:
            go_left = x <= node.threshold
        else:
            go_left = round(x * (1 << frac_bits)) <= node.fixed_threshold
        node = node.left if go_left else node.right
    return node.label


def _sum_squared_fractions(counts: np.ndarray, total: int) -> float:
    return float(np.sum((counts / total) ** 2)) if total else 0.0


def gini_gain(labels: np.ndarray, left: np.ndarray, n_classes: int) -> float:
    """Eq. 5: w_l Σ p_l² + w_r Σ p_r² - Σ p² (an empty side adds 0)."""
    n, n_left = len(labels), int(left.sum())
    counts = np.bincount(labels, minlength=n_classes)
    left_counts = np.bincount(labels[left], minlength=n_classes)
    return (
        n_left / n * _sum_squared_fractions(left_counts, n_left)
        + (n - n_left) / n * _sum_squared_fractions(counts - left_counts, n - n_left)
        - _sum_squared_fractions(counts, n)
    )


def check_tree(
    tree: Node,
    columns: list[np.ndarray],
    labels: np.ndarray,
    grids: list[list[list[float]]],
    n_classes: int,
    params: Any,
) -> tuple[list[str], float]:
    """Problems found in ``tree`` over the training data, and the largest
    gap between a node's best plaintext gain and its chosen split's gain.

    ``columns[i]`` is party i's training block, ``grids[i][j]`` the
    candidate thresholds of its feature j and ``params`` the
    ``TreeParams`` the tree was trained with.
    """
    problems: list[str] = []
    worst_gap = 0.0

    def best_gain(rows: np.ndarray) -> float:
        return max(
            gini_gain(labels[rows], columns[i][rows, j] <= t, n_classes)
            for i, party in enumerate(grids)
            for j, feature in enumerate(party)
            for t in feature
        )

    def stops(rows: np.ndarray, depth: int) -> str | None:
        """Why the stopping rule makes this node a leaf, if it does."""
        if depth >= params.max_depth:
            return "at max_depth"
        if rows.size < params.min_samples_split:
            return f"{rows.size} rows"
        if np.unique(labels[rows]).size == 1:
            return "pure"
        return None

    def visit(node: Node, rows: np.ndarray, depth: int, path: str) -> None:
        nonlocal worst_gap
        where = path or "root"
        node_labels = labels[rows]
        reason = stops(rows, depth)
        if node.label is not None:
            if rows.size:
                counts = np.bincount(node_labels, minlength=n_classes)
                if counts[node.label] != counts.max():
                    problems.append(f"leaf {where}: label {node.label} is not a majority class")
            if reason is None:
                best = best_gain(rows)
                if best > params.min_gain + GAIN_TOL:
                    problems.append(
                        f"leaf {where}: best gain {best:.5f} over min_gain; "
                        "the node should have been split"
                    )
            return
        if reason is not None:
            problems.append(f"node {where}: split although {reason}")
            return
        grid = grids[node.owner][node.feature]
        if node.threshold not in grid:
            problems.append(f"node {where}: threshold {node.threshold} not on the grid")
        go_left = columns[node.owner][rows, node.feature] <= node.threshold
        best, chosen = best_gain(rows), gini_gain(node_labels, go_left, n_classes)
        worst_gap = max(worst_gap, best - chosen)
        if best - chosen > GAIN_TOL:
            problems.append(f"node {where}: chosen gain {chosen:.5f} < best {best:.5f}")
        visit(node.left, rows[go_left], depth + 1, path + "L")
        visit(node.right, rows[~go_left], depth + 1, path + "R")

    visit(tree, np.arange(len(labels)), 0, "")
    return problems, worst_gap
