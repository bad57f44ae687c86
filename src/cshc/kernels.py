"""Hot numeric kernels and the tree layout they share.

Both kinds of tree, the CSHC forest's and the Gini base classifier's, are
grown by one level-wise grower, `grow`, which grows a group of trees in
lockstep, one depth at a time:
  - presort: each tree's columns are stable-argsorted once, at its root;
    a split partitions every column's order stably into the two children,
    so a node's orders always equal a stable argsort of its own members
  - segments: the nodes of one depth, across the whole group, are
    contiguous segments of those orders, and one segmented scan
    (`best_split` for CSHC, `gini_split` for Gini) scores every candidate
    cut of every segment at once, over class-major targets (m, N, F)
  - groups: the caller picks which trees grow together; the level arrays
    hold the members of the whole group
The targets are whole numbers (weighted correct indicators, class
counts), so every segment sum is exact in any order, and each node gets
the bits a scan of that node alone would give it.

The split search's conventions:
  - a sample is routed left iff its feature value <= threshold
  - candidate thresholds are midpoints between consecutive distinct values
  - ties are broken by lowest feature column, then lowest threshold

A tree is two flat node arrays, feat and thr, in level order: the j-th
split node (feat >= 0) has children 2j + 1 and 2j + 2, and the leaves
(feat -1) are numbered in node order. This module owns that layout:
`grow` writes it, `layout` derives the children and leaf ids from feat,
`route` reads them and `check_tree` validates feat and thr on load.

One exact kNN kernel, `nearest`, serves the 1-NN classifier and the kNN
regions of the neighbourhood baselines. A matrix product gives every
squared distance up to a proven rounding bound; only the pool rows that
bound cannot rule out of the k nearest are recomputed exactly, with the
same elementwise ops and the same reduction as a one-query scan, so every
answer keeps the bits of that scan. The filter needs no sort: the largest
of the minima of k disjoint strided column groups has k entries at or
below it, so it bounds the k-th smallest filter value from above (for
k = 1 it is the row minimum), and the kept pairs come out of one flat
nonzero in row-major order.
"""

from functools import reduce

import numpy as np

from .data import DataError

# bytes of the largest (queries, pool rows) float64 array `nearest` holds
NEAREST_BYTES = 1 << 20

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# below this scale no sum or product of the distance filter can overflow
_HUGE = np.finfo(np.float64).max / 16


def _scan(vals, Y, mult, min_size, gain, order, starts):
    """Best cut of every segment of a level: (K,) arrays (gain, column,
    threshold) of each segment's first maximum in column-major order,
    with column -1 where a segment has no valid cut.

    order (N, F) holds indices into the members' values vals (S, F),
    class-major targets Y (m, S) and multiplicities mult (S,); segment k
    runs from position starts[k] to the next start, each column sorted
    stably by value within it. A cut after a position must separate
    distinct values of one segment and leave both sides at least min_size
    of mult. gain(left, right, n_left, total, total_m, seg) scores every
    cut from the sums of Y on either side, (m, N, F), the left sums of
    mult, (N, F), the segment totals of Y and mult, (m, K) and (K,), and
    the segment of each position, (N,).
    """
    N, F = order.shape
    K = starts.size
    m = Y.shape[0]
    sizes = np.diff(starts, append=N)
    seg = np.repeat(np.arange(K), sizes)
    last = starts + sizes - 1
    v = np.take(vals, order * F + np.arange(F))
    # Running sums restart at each segment: its first entry has the total
    # of the segment before it taken off, so one cumsum covers them all,
    # the m classes' segments too. The sums are of whole numbers, so they
    # are exact and equal each segment's own running sums.
    left = np.take(Y, order, axis=1)
    total = np.add.reduceat(left, starts, axis=1)
    left.reshape(m * N, F)[(starts + N * np.arange(m)[:, None]).ravel()[1:]] \
        -= total.reshape(m * K, F)[:-1]
    left = np.cumsum(left.reshape(m * N, F), axis=0).reshape(m, N, F)
    n_left = np.take(mult, order)
    total_m = np.add.reduceat(n_left, starts)
    n_left[starts[1:]] -= total_m[:-1]
    n_left = np.cumsum(n_left, axis=0)
    total, total_m = total[:, :, 0], total_m[:, 0]
    right = total[:, seg, None] - left
    ok = np.zeros((N, F), dtype=bool)
    ok[:-1] = v[:-1] < v[1:]
    ok[last] = False  # a segment's last position cuts nothing
    ok &= (n_left >= min_size) & (total_m[seg, None] - n_left >= min_size)
    gains = np.where(ok, gain(left, right, n_left, total, total_m, seg),
                     -np.inf)
    # the first maximum in column-major order: the first column holding
    # the segment's best gain, then the first cut in that column
    col_best = np.maximum.reduceat(gains, starts, axis=0)
    col = col_best.argmax(axis=1)
    best = col_best[np.arange(K), col]
    hit = gains[np.arange(N), col[seg]] == best[seg]
    cut = np.minimum.reduceat(np.where(hit, np.arange(N), N), starts)
    found = best > -np.inf
    col = np.where(found, col, -1)
    thr = np.full(K, np.nan)
    i = np.flatnonzero(found)
    thr[i] = 0.5 * (v[cut[i], col[i]] + v[cut[i] + 1, col[i]])
    return np.where(found, best, -1.0), col, thr


def best_split(vals, wcorrect, mult, min_size, order, starts):
    """Best cost-sensitive split of every segment of a level.

    vals     : (S, F) feature values of the members
    wcorrect : (S, n) multiplicity-weighted correct indicators per classifier
    mult     : (S,) member multiplicities
    min_size : minimum total multiplicity allowed in each child
    order, starts : the level's (N, F) orders and (K,) segment starts,
               as `grow` passes them

    Returns (gain, column, threshold) as (K,) arrays, with column -1
    where a segment has no valid cut; gain is the increase of
    max-per-child correct counts over the segment's single best count.
    """
    def gain(left, right, n_left, total, total_m, seg):
        # np.maximum over the m class slabs: the same exact maxima as
        # .max(axis=0), which numpy computes many times slower
        return (reduce(np.maximum, left) + reduce(np.maximum, right)
                - total.max(axis=0)[seg, None])

    return _scan(vals, np.ascontiguousarray(wcorrect.T), mult, min_size,
                 gain, order, starts)


def gini_split(vals, labels, n_classes, order, starts):
    """Best Gini split of every segment of a level of unweighted members.

    Maximizes sum over children of (sum_k count_k^2) / child_size, which
    is equivalent to minimizing the size-weighted Gini impurity. Returns
    (score_gain, column, threshold) as (K,) arrays as `best_split` does,
    score_gain relative to the unsplit segment.
    """
    onehot = (labels == np.arange(n_classes)[:, None]).astype(np.float64)

    def gain(left, right, n_left, total, total_m, seg):
        # the right side is empty only at a segment's last position,
        # which is no cut
        n_right = np.maximum(total_m[seg, None] - n_left, 1.0)
        return (reduce(np.add, left ** 2) / n_left
                + reduce(np.add, right ** 2) / n_right
                - ((total ** 2).sum(axis=0) / total_m)[seg, None])

    return _scan(vals, onehot, np.ones(labels.size), 0.0, gain, order, starts)


def grow(vals, sizes, targets, mult, limits=None):
    """Grow a group of trees level by level into flat node arrays.

    Tree t's members are the next sizes[t] rows of vals (S, F), whole
    number targets (S, m) and multiplicities mult (S,).
    - limits = (max_depth, min_size, min_improvement) grows CSHC trees,
      targets being the multiplicity-weighted correct indicators. A node
      is a leaf at max_depth, when its best count (its largest target
      sum) is 0, when no cut leaves both children min_size of mult, or
      when the best gain is below min_improvement times its best count.
      A node is not scanned when its total multiplicity is below
      2 min_size, or its total less its best count is below that
      product: a child's best count is at most its multiplicity, so a
      cut gains at most total - best, exactly in whole-number float64.
    - limits None grows unpruned Gini trees, targets being one-hot class
      rows and mult ones. A node is a leaf when it is pure or no cut is
      valid.

    Each level makes one call of `best_split` or `gini_split` for all
    the nodes it scans. Returns (nodes, leaf_ptr, members): each tree's
    (feat, thr) in level order, feat indexing the columns of vals, and
    the group's leaf table, its leaves tree by tree in leaf order: leaf
    l holds members[leaf_ptr[l]:leaf_ptr[l + 1]], ascending row indices
    of vals.
    """
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    order = np.concatenate([np.argsort(vals[a:b], axis=0, kind="stable") + a
                            for a, b in zip(bounds[:-1], bounds[1:])])
    starts = bounds[:-1]
    if limits is None:
        labels = targets.argmax(axis=1)
    else:
        max_depth, min_size, min_improvement = limits
    leaf_node = np.empty(bounds[-1], dtype=np.int64)  # each member's leaf
    # Node ids count the group's nodes level by level. The children of a
    # level's split nodes make up the next level, in their parents' order,
    # left then right, so each tree's nodes come in its level order.
    levels = []  # (tree, feat, thr) of each level's nodes
    tree = np.arange(len(sizes))
    base = depth = 0
    while starts.size:
        K = starts.size
        node = base + np.arange(K)
        feat = np.full(K, -1, dtype=np.int64)
        thr = np.zeros(K)
        levels.append((tree, feat, thr))
        first = order[:, 0]
        best = np.add.reduceat(targets[first], starts).max(axis=1)
        total = np.add.reduceat(mult[first], starts)
        if limits is None:
            scan = best < total  # impure
        else:
            need = min_improvement * best
            scan = ((best != 0.0) & (depth < max_depth)
                    & (total >= 2 * min_size) & (total - best >= need))
        order, starts, node = _keep(order, starts, node, scan, leaf_node)
        if starts.size:
            if limits is None:
                _, col, cut = gini_split(vals, labels, targets.shape[1],
                                         order, starts)
            else:
                gain, col, cut = best_split(vals, targets, mult, min_size,
                                            order, starts)
                col[gain < need[scan]] = -1
            split = col >= 0
            order, starts, node = _keep(order, starts, node, split,
                                        leaf_node)
            col, cut = col[split], cut[split]
            i = node - base
            feat[i], thr[i] = col, cut
            order, starts = _partition(order, starts, vals, col, cut)
            tree = np.repeat(tree[i], 2)
        base += K
        depth += 1
    # a stable sort by tree gathers each tree's nodes in level order and
    # numbers the group's leaves tree by tree, each tree's in node order
    tree, feat, thr = (np.concatenate(a) for a in zip(*levels))
    perm = np.argsort(tree, kind="stable")
    feat, thr = feat[perm], thr[perm]
    leaf_of = np.empty(perm.size, dtype=np.int64)
    leaf_of[perm] = np.cumsum(feat < 0) - 1
    leaf_of = leaf_of[leaf_node]
    nodes = np.cumsum(np.bincount(tree, minlength=len(sizes)))[:-1]
    return (list(zip(np.split(feat, nodes), np.split(thr, nodes))),
            np.concatenate([[0], np.cumsum(np.bincount(leaf_of))]),
            np.argsort(leaf_of, kind="stable"))


def _keep(order, starts, node, keep, leaf_node):
    """The orders, starts and node ids of the segments keep selects; each
    member of the others gets leaf_node[member] = its segment's node."""
    if keep.all():
        return order, starts, node
    sizes = np.diff(starts, append=order.shape[0])
    rows = np.repeat(keep, sizes)
    leaf_node[order[~rows, 0]] = np.repeat(node[~keep], sizes[~keep])
    sizes = sizes[keep]
    return order[rows], np.cumsum(sizes) - sizes, node[keep]


def _partition(order, starts, vals, col, cut):
    """The children's orders and starts: in each column, segment k's
    positions stably split into its members with vals[:, col[k]] <=
    cut[k], which take the segment's start, then the others."""
    N = order.shape[0]
    sizes = np.diff(starts, append=N)
    seg = np.repeat(np.arange(starts.size), sizes)
    go_left = np.zeros(vals.shape[0], dtype=bool)
    go_left[order[:, 0]] = vals[order[:, 0], col[seg]] <= cut[seg]
    is_left = go_left[order]
    n_left = np.cumsum(is_left, axis=0)
    before = np.zeros((starts.size, order.shape[1]), dtype=np.int64)
    before[1:] = n_left[starts[1:] - 1]
    n_left -= before[seg]  # left members of its segment up to a position
    seg_left = n_left[starts + sizes - 1, 0]
    # a right member follows its segment's left members and the right
    # members before it
    dest = np.where(is_left, starts[seg, None] + n_left - 1,
                    np.arange(N)[:, None] + seg_left[seg, None] - n_left)
    out = np.empty_like(order)
    np.put_along_axis(out, dest, order, axis=0)
    return out, np.column_stack([starts, starts + seg_left]).ravel()


def layout(feat):
    """(left, right, leaf_id) of the tree whose node split features are
    feat: the j-th split node has children 2j + 1 and 2j + 2 and leaf id
    -1, and leaves have children -1 and ids 0 .. L - 1 in node order."""
    split = feat >= 0
    left = np.where(split, 2 * np.cumsum(split) - 1, -1)
    return (left, np.where(split, left + 1, -1),
            np.where(split, -1, np.cumsum(~split) - 1))


def check_tree(feat, thr, n_features):
    """Raise DataError unless feat and thr hold a tree in the layout
    `grow` writes: one length N >= 1, feat in [-1, n_features), N = 2K + 1
    for K splits and each node i >= 1 after its parent split, i <= 2
    (splits before i), so `route` ends at a leaf within N steps. Returns
    the number of leaves, K + 1."""
    N = max(feat.size, 1)
    for name, arr in (("feat", feat), ("thr", thr)):
        if arr.shape != (N,):
            raise DataError("has %r of shape %s, not (%d,)"
                            % (name, arr.shape, N))
    bad = np.flatnonzero((feat < -1) | (feat >= n_features))
    if bad.size:
        raise DataError("has 'feat' %d at node %d" % (feat[bad[0]], bad[0]))
    splits = np.cumsum(feat >= 0)  # splits up to each node
    orphan = np.arange(1, N) > 2 * splits[:-1]
    if orphan.any():
        raise DataError("has no parent split before node %d"
                        % (np.argmax(orphan) + 1))
    K = int(splits[-1])
    if N != 2 * K + 1:
        raise DataError("has %d nodes for %d splits, not %d"
                        % (N, K, 2 * K + 1))
    return K + 1


def route(feat, thr, left, right, leaf_id, X):
    """Route the rows of X through a tree's node arrays, left, right and
    leaf_id being its `layout`; returns leaf ids."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.nonzero(left[node] >= 0)[0]
    while rows.size:
        nd = node[rows]
        go_left = X[rows, feat[nd]] <= thr[nd]
        nxt = np.where(go_left, left[nd], right[nd])
        node[rows] = nxt
        rows = rows[left[nxt] >= 0]
    return leaf_id[node]


def nearest(queries, k, pool):
    """The k nearest pool rows of every query; a ValueError unless
    1 <= k <= N, the pool size.

    Returns (Q, k) pool row indices, by ascending squared Euclidean
    distance and then pool index, and those squared distances. A squared
    distance is np.square(p - q).sum() over the F features, the sum a
    one-query scan of the pool computes, so the answer has that scan's
    bits however the queries are blocked.

    Queries go in blocks whose (queries, N) float64 arrays stay within
    NEAREST_BYTES. In each block:
      - filter: one matrix product gives P = |p|^2 - 2 q.p, which is the
        squared distance less |q|^2. With s = (|q| + max |p|)^2, both P
        and the exact sum are within (F + 2) eps s of the true value, plus
        an underflow term, so every pool row among the k nearest has P
        within tol = 4 (F + 2) (eps s + tiny) of the k-th smallest P.
      - bound: the columns split into k disjoint, non-empty strided
        groups, pool rows j, j + k, j + 2k, ..., and G is the largest of
        the groups' minima of P. Each group holds an entry at or below G,
        so k entries are, and G is at least the k-th smallest P; for
        k = 1 it is that P. The rows with P <= G + tol, a superset of
        those above, are kept. Strided groups each span the whole pool,
        so G stays near the k-th smallest P however the pool's rows are
        ordered; contiguous groups would not, on a pool sorted by class
        or by a feature.
      - exact: the kept (query, pool row) pairs, taken from the flat
        indices of the kept mask in row-major order, get their squared
        distances recomputed as the scan does; a stable sort by (query,
        distance) then leaves equal distances in index order.
      - fallback: a query whose bound is not finite, or whose s is within
        a factor 16 of float64's maximum, keeps every pool row.
    An overflow in the exact sums raises or warns, as the caller's
    np.errstate says, as the one-query scan of the first query that
    overflows would.
    """
    N, F = pool.shape
    if not 1 <= k <= N:
        raise ValueError("k=%d is outside 1..%d, the pool size" % (k, N))
    Q = queries.shape[0]
    neighbors = np.empty((Q, k), dtype=np.int64)
    d2_near = np.empty((Q, k))
    with np.errstate(all="ignore"):
        norms = np.einsum("ij,ij->i", pool, pool)
        pool_max = np.sqrt(norms.max())
    block = max(1, NEAREST_BYTES // (8 * N))
    for a in range(0, Q, block):
        q = queries[a:a + block]
        with np.errstate(all="ignore"):
            P = q @ pool.T
            P *= -2.0
            P += norms
            scale = np.square(np.sqrt(np.einsum("ij,ij->i", q, q)) + pool_max)
            bound = np.max([P[:, j::k].min(axis=1) for j in range(k)],
                           axis=0) + 4 * (F + 2) * (_EPS * scale + _TINY)
        keep = P <= bound[:, None]
        keep[~(np.isfinite(bound) & (scale <= _HUGE))] = True
        row, col = np.divmod(np.flatnonzero(keep), N)
        with np.errstate(over="ignore"):
            d2 = np.square(pool[col] - q[row]).sum(axis=1)
        # a sum overflowed: rescan each such query alone, in order, so the
        # first raises or warns with the one-query scan's message
        for r in np.unique(row[~np.isfinite(d2)]):
            np.square(pool - q[r]).sum(axis=1)
        order = np.lexsort((d2, row))
        take = order[np.searchsorted(row, np.arange(q.shape[0]))[:, None]
                     + np.arange(k)]
        neighbors[a:a + block] = col[take]
        d2_near[a:a + block] = d2[take]
    return neighbors, d2_near
