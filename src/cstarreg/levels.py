"""The interval module: the frame transport of `gridalg.polar_extension_1d`
for every d; it does not import `gridalg`. For d = 1 `decide` takes L cut
levels in one pass over (L, n) arrays, each step elementwise or an exact
maximum with no sum over the level axis, so each level has the bits of a
decision at it alone. For d > 1 `_transport` carries a unitary frame in the
coordinates of the pointwise SVD. Both fill free nodes from `_flanks`."""

import math

import numpy as np

from .opcore import TAU_NONZERO

# |det m| / ||m||_F^2 (about s2/s1) at or below which det m is rounding of
# zero and the 2 x 2 polar factor comes from the SVD
POLAR2_DET_FLOOR = TAU_NONZERO


def jumps(f: np.ndarray) -> np.ndarray:
    """The modulus of scalar interval samples f, shape (..., n), along the last axis."""
    return np.abs(f[..., 1:] - f[..., :-1]).max(axis=-1)


def _flanks(supported: np.ndarray):
    """(left, right, bridged) along the last axis of the mask `supported`:
    the supported node at or before each node (else the first one, or 0),
    the one at or after it (else n), and the mask of the nodes between two."""
    n = supported.shape[-1]
    idx = np.arange(n)
    first = supported.argmax(axis=-1)[..., None]
    left = np.maximum.accumulate(np.where(supported, idx, first), axis=-1)
    right = np.minimum.accumulate(np.where(supported, idx, n)[..., ::-1], axis=-1)[..., ::-1]
    return left, right, (idx > left) & (right < n)


def witnesses(u: np.ndarray, supported: np.ndarray) -> np.ndarray:
    """The witnesses for flat phases u, shape (L, n), on the supports
    `supported` = s > delta: u + 0.0 there (the bytes of u vh: a -0 part
    turns +0), the nearest supported frame before the first supported node
    and after the last (node 0's if none is), and on each interior free run
    the phase-linear bridge w_lo exp(i frac angle(w_lo* w_hi))."""
    left, right, bridged = _flanks(supported)
    u = u + 0.0
    w = u[left]
    rows, cols = np.nonzero(bridged)
    if rows.size:
        lo, hi = left[rows, cols], right[rows, cols]
        w1 = u[lo]
        w[rows, cols] = w1 * np.exp(1j * ((cols - lo) / (hi - lo)) * np.angle(w1.conj() * u[hi]))
    return w


def decide(u: np.ndarray, s: np.ndarray, delta: np.ndarray, factor: float):
    """(bounds, moduli, w) at the levels delta, shape (L, 1), clear of the
    flat moduli s: the modulus bounds factor jumps(cut-down) / spread, with
    spread the distance to the nearest s below (0 if none; inf at spread 0),
    the witnesses' moduli, both lists, and the witnesses."""
    w = witnesses(u, s > delta)
    spread = (delta[:, 0] - np.where(s < delta, s, 0.0).max(axis=1)).tolist()
    cut = jumps(u * np.maximum(s - delta, 0.0) + 0.0).tolist()
    bounds = [factor * c / gap if gap > 0 else math.inf for c, gap in zip(cut, spread)]
    return bounds, jumps(w).tolist(), w


def _polar_block(m: list) -> list:
    """Unitary polar factor of a small square block given as nested lists of
    Python complex numbers, returned the same way.

    r = 1: m/|m|, and 1 when m = 0, as LAPACK. r = 2: the closed form of
    `_polar2`. At or below POLAR2_DET_FLOOR (det m = 0 included), and for
    r >= 3, LAPACK's SVD.
    """
    if len(m) == 1:
        y = m[0][0]
        return [[y / abs(y) if y else 1.0 + 0j]]
    if len(m) == 2:
        flat = _polar2(*m[0], *m[1])
        if flat is not None:
            return [list(flat[:2]), list(flat[2:])]
    mu, _, mvh = np.linalg.svd(np.array(m))
    return (mu @ mvh).tolist()


def _polar2(a: complex, b: complex, c: complex, d: complex):
    """Unitary polar factor of [[a, b], [c, d]] as the flat row-major tuple
    of its entries, in the closed form
    (m + (det m/|det m|) adj(m)*) / sqrt(||m||_F^2 + 2 |det m|) (Higham,
    Functions of Matrices, SIAM 2008, 8.1), since p + |det m| p^-1 =
    (s1 + s2) 1 for the 2 x 2 positive part p. Like LAPACK's, its result is
    unitary to rounding and within about eps s1/s2 of the exact factor,
    which is as sensitive as that. None at or below POLAR2_DET_FLOOR, where
    det m is rounding of zero."""
    det = a * d - b * c
    adet = abs(det)
    fro2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    if not adet > POLAR2_DET_FLOOR * fro2:
        return None
    ph = det / adet
    scale = 1.0 / math.sqrt(fro2 + 2.0 * adet)
    return ((a + ph * d.conjugate()) * scale, (b - ph * c.conjugate()) * scale,
            (c - ph * b.conjugate()) * scale, (d + ph * a.conjugate()) * scale)


def _dot(row: list, col: list):
    """sum(map(mul, row, col)) written out: the products added left to right
    from the integer 0, which is how the builtin adds complex numbers on
    Python 3.11, so the bits are the same."""
    acc = 0
    for x, y in zip(row, col):
        acc = acc + x * y
    return acc


def _transport(u: np.ndarray, vh: np.ndarray, keeps: np.ndarray) -> np.ndarray:
    """Procrustes transport of a unitary frame along the interval for
    d > 1 (`witnesses` for d = 1), carried in frame coordinates.

    Every node's frame is w = u X vh. X = 1 at every node that keeps all
    its directions and at the first supported node. At each later node k
    that keeps some but not all, X is 1 on the kept block and the r x r
    unitary U_k on the free block:
    U_k = polar of the free block of T X_prev S, with prev the last
    supported node before k, T = u_k* u_prev and S = vh_prev vh_k*, which
    is the Procrustes completion of the free part against w_prev. T and S
    come in one stacked product each; `_free_blocks` runs the recurrence
    on them, carrying only U from node to node, and X, written one batched
    assignment per kept count, gives w = u X vh at those nodes in one more
    stacked product. Fully free nodes copy the nearest supported frame,
    which is what a Procrustes step from a neighbour gives them, and
    interior runs of them are then bridged along the unitary geodesic
    between their flanks.
    """
    npts, d, _ = u.shape
    w = u @ vh
    supported = keeps[:, 0]  # s is descending, so each node keeps a prefix
    left, right, bridged = _flanks(supported)
    idx = np.arange(npts)
    part = np.flatnonzero(supported & ~keeps[:, -1] & (idx > left[0]))  # after the first
    if part.size:
        prev = left[part - 1]
        kept = keeps[part].sum(axis=1)
        counts = kept.tolist()
        blocks = _free_blocks(
            u[part].conj().transpose(0, 2, 1) @ u[prev],
            # S transposed, so that row j is column j of S
            vh[part].conj() @ vh[prev].transpose(0, 2, 1),
            counts, (prev[1:] == part[:-1]).tolist())
        x = np.tile(np.eye(d, dtype=np.complex128), (part.size, 1, 1))
        for m in set(counts):  # not np.unique, which imports numpy.ma
            at = np.flatnonzero(kept == m)
            x[at, m:, m:] = np.array([blocks[i] for i in at.tolist()]).reshape(-1, d - m, d - m)
        w[part] = u[part] @ x @ vh[part]
    w = w.reshape(npts, d * d)[left].reshape(npts, d, d)
    if bridged.any():
        lo, hi = left[bridged], right[bridged]
        w[bridged] = _geodesic(w[lo], w[hi], (idx[bridged] - lo) / (hi - lo))
    return w


def _free_blocks(ts: np.ndarray, ss: np.ndarray, kept: list, chained: list) -> list:
    """The free blocks U_k of `_transport`, one flat row-major tuple of r x r
    entries per partially kept node, r = d - kept.

    ts[k] is T and ss[k] S transposed, so that row j of ss[k] is column j of
    S. chained[k - 1] says that node k's prev is the partial node before it
    in the list: only then does X_prev carry a free block, the (m, U)
    carried from the step before. Every entry of a product is a `_dot`,
    summed left to right from 0, so the frames do not depend on how the
    step is written. r = 1: U = y/|y| (1 at y = 0, as LAPACK), y the one
    entry of the free block; r = 2: `_polar2`. A step whose kept count
    differs from the carried one (rare), and r >= 3, go the general way
    through `_polar_block`, on the node's entries as Python complex scalars.

    For r <= 2, U_prev acts on the last r entries of each free column of S
    only, so each entry of the free block, a `_dot` of a row of T with such
    a column, splits into its first d - r terms, which do not depend on U,
    and its last r. `_heads` sums the first terms of the bottom-right 2 x 2
    entries for every node at once, with the bits of `_dot`, and the loop
    adds the last ones in `_dot`'s order.
    """
    d = ts.shape[-1]
    heads = _heads(ts[:, -2:, None, :-1], ss[:, None, -2:, :-1])
    ys = heads[:, 1, 1, -1].tolist()  # r = 1: the first d - 1 terms of y
    bs = heads[..., -2].reshape(-1, 4).tolist()  # r = 2: the first d - 2 of each entry
    tails = np.concatenate([ts[:, -2:, -2:], ss[:, -2:, -2:]], axis=1).reshape(-1, 8).tolist()
    blocks = []
    mp = up = None  # kept count and free block of the step before
    end = d * d
    for k, (m, chain) in enumerate(zip(kept, [False, *chained])):
        r = d - m
        if r > 2 or (chain and mp != m):
            t, s = ts[k].ravel().tolist(), ss[k].ravel().tolist()
            cols = [s[j:j + d] for j in range(m * d, end, d)]  # the free columns of S
            if chain:  # of X_prev S: U_prev acts on the last d - mp entries
                rp = d - mp
                for col in cols:
                    tail = col[mp:]
                    col[mp:] = [_dot(up[i:i + rp], tail) for i in range(0, rp * rp, rp)]
            block = _polar_block([[_dot(t[i:i + d], col) for col in cols]
                                  for i in range(m * d, end, d)])
            up = tuple(z for row in block for z in row)
        elif r == 1:
            t, s = tails[k][3], tails[k][7]  # the last entries of T and S
            y = ys[k] + t * (s if not chain else 0 + up[0] * s)
            up = (y / abs(y) if y else 1.0 + 0j,)
        else:
            t00, t01, t10, t11, p0, q0, p1, q1 = tails[k]  # (p, q): a column's last two
            if chain:
                u00, u01, u10, u11 = up
                p0, q0 = 0 + u00 * p0 + u01 * q0, 0 + u10 * p0 + u11 * q0
                p1, q1 = 0 + u00 * p1 + u01 * q1, 0 + u10 * p1 + u11 * q1
            b00, b01, b10, b11 = bs[k]
            block = [b00 + t00 * p0 + t01 * q0, b01 + t00 * p1 + t01 * q1,
                     b10 + t10 * p0 + t11 * q0, b11 + t10 * p1 + t11 * q1]
            up = _polar2(*block)
            if up is None:
                up = tuple(z for row in _polar_block([block[:2], block[2:]]) for z in row)
        blocks.append(up)
        mp = m
    return blocks


def _heads(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The running sums of `_dot(t, s)` over the last axis, broadcast:
    out[..., l] sums the first l products, left to right from 0, so that
    out[..., 0] is 0 and a -0.0 part turns into +0.0 as in `_dot`. Each
    product is made from real float products by Python's complex formula,
    so the sums have the bits of `_dot`'s."""
    shape = np.broadcast_shapes(t.shape, s.shape)
    prods = np.zeros((*shape[:-1], shape[-1] + 1), dtype=np.complex128)
    prods.real[..., 1:] = t.real * s.real - t.imag * s.imag
    prods.imag[..., 1:] = t.real * s.imag + t.imag * s.real
    return np.add.accumulate(prods, axis=-1)


def _geodesic(w1: np.ndarray, w2: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The points at fractions `frac` along the unitary geodesics from the
    stack w1 to the stack w2, re-orthonormalized by polar correction."""
    frac = frac[:, None, None]
    evals, vecs = np.linalg.eig(w1.conj().transpose(0, 2, 1) @ w2)
    uu, _, vv = np.linalg.svd(
        w1 @ (vecs * np.exp(1j * frac * np.angle(evals)[:, None, :])) @ np.linalg.inv(vecs))
    return uu @ vv
