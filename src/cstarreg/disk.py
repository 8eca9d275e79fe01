"""The phase machinery of a scalar element of C(disk) on the polar grid:
the integer phase jumps of the edges and the face charges they give (the
`_DiskPhase` that no cut level changes), the holes of a support and the
windings that block them (`_blocked_windings`), and the unwrapped phase
bridged over the free nodes that a witness takes (`_phase_witness`).

`gridalg` decides and builds with these. This module does not import it:
an element is read through its `domain`, `values` and kept `_phase`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PhaseUnwrapAliasing

ALIAS_GUARD = np.pi / 2  # max tolerated adjacent-point phase jump


def _principal(x):
    """Principal value of an angle difference, in [-pi, pi)."""
    return (x + np.pi) % (2.0 * np.pi) - np.pi


class _DiskPhase(NamedTuple):
    """The phase data of a scalar disk element that no cut level changes.

    ang, rad: the integer jumps (wrap(dphi) - dphi) / 2 pi of the angular
    edges (j, m) -> (j, m+1), shape (nr, nt), and of the radial edges
    (j, m) -> (j+1, m), shape (nr - 1, nt); int8, as every jump is -1, 0
    or 1. charged, charges: the flat index (that of node (j, m) for quad
    (j, m)) and the charge of each charged quad; centre: the charge of the
    centre polygon (`_face_charges`). alias_level: the largest
    min(|f_i|, |f_j|) over the edges whose wrapped step exceeds ALIAS_GUARD
    (-inf when there is none), so an edge inside the support {|f| > delta}
    aliases iff delta < alias_level.

    floor, ceiling: levels that decide the labelling of `_blocked_windings`
    without it. floor is the largest min |f| over the rings j whose
    circulation ang[j].sum() is nonzero (-inf when none is). Below it
    such a ring lies wholly in the support, so no free 8-connected path
    crosses it: the holes inside it hold exactly the faces inside it and
    none reaches the rim, and by discrete Stokes (`_face_charges`) their
    charges sum to the ring's circulation, so some hole is blocked.
    ceiling, only when no quad is charged and the centre carries the only
    charge (+inf otherwise), is the smallest over the columns m of
    max_j |f(j, m)|. At or above it some column is free on every ring, so
    ring 0's hole reaches the rim and no hole is blocked.
    """

    ang: np.ndarray
    rad: np.ndarray
    charged: np.ndarray
    charges: np.ndarray
    centre: int
    alias_level: float
    floor: float
    ceiling: float


def _wrapped_steps(ge):
    """(wrapped, raw) phase steps along the edges of `edge_arrays`."""
    left, right = ge.domain.edge_arrays()  # angular edges first, both in flat order
    phase = np.angle(ge.values[:, 0, 0])
    dphi = phase[right] - phase[left]
    return _principal(dphi), dphi


def _disk_phase(ge) -> _DiskPhase:
    """The `_DiskPhase` of a scalar disk element, computed on first use and
    kept on it (`_phase`), as `spectrum()` keeps the SVD. It keeps about 2 bytes per
    node: the float phase and steps would hold 16 per edge."""
    if ge._phase is None:
        dom = ge.domain
        nr, nt = dom.n_radial, dom.n_angular
        step, dphi = _wrapped_steps(ge)
        jump = np.rint((step - dphi) / (2.0 * np.pi)).astype(np.int8)
        ang, rad = jump[: nr * nt].reshape(nr, nt), jump[nr * nt:].reshape(nr - 1, nt)
        quads, centre = _face_charges(ang, rad)
        charged = np.flatnonzero(quads)
        mags = np.abs(ge.values[:, 0, 0])
        aliased = np.abs(step) > ALIAS_GUARD
        level = -math.inf
        if aliased.any():
            left, right = dom.edge_arrays()
            level = float(np.minimum(mags[left[aliased]], mags[right[aliased]]).max())
        rings = mags.reshape(nr, nt)
        wound = rings[ang.sum(axis=1) != 0]
        floor = float(wound.min(axis=1).max()) if wound.size else -math.inf
        ceiling = math.inf if charged.size else float(rings.max(axis=0).min())
        ge._phase = _DiskPhase(ang, rad, charged, quads.ravel()[charged], centre, level,
                               floor, ceiling)
    return ge._phase


def _aliasing(ge, delta: float) -> PhaseUnwrapAliasing:
    """The error for the first edge inside the support {|f| > delta} whose
    wrapped step exceeds ALIAS_GUARD."""
    left, right = ge.domain.edge_arrays()
    step, _ = _wrapped_steps(ge)
    support = np.abs(ge.values[:, 0, 0]) > delta
    k = int(np.argmax(support[left] & support[right] & (np.abs(step) > ALIAS_GUARD)))
    return PhaseUnwrapAliasing(
        f"phase jump {abs(step[k]):.3f} > pi/2 between nodes {left[k]} and "
        f"{right[k]}; refine the grid")


def _face_charges(ang: np.ndarray, rad: np.ndarray):
    """Counterclockwise circulations of the edge jumps: (quads, centre).
    Quad (j, m) runs (j, m) -> (j+1, m) -> (j+1, m+1) -> (j, m+1); the
    centre polygon is ring 0. With one orientation for all faces, the quad
    charges and the centre charge sum to the circulation along the rim."""
    quads = rad + ang[1:] - np.roll(rad, -1, axis=1) - ang[:-1]
    return quads, int(ang[0].sum())


def _run_starts(mask: np.ndarray) -> np.ndarray:
    """Where a run of set nodes along a ring of an (nr, nt) mask begins, the
    seam (column nt - 1 -> 0) cutting every run."""
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    return starts


def _ring_runs(mask: np.ndarray):
    """The runs of set nodes along each ring of an (nr, nt) mask, cut at the
    seam: the run of each node, numbered in flat order of the runs' first
    nodes (-1 off the mask), shape (nr, nt), and the flat index of each
    run's first node."""
    starts = _run_starts(mask)
    runs = np.cumsum(starts) - 1
    runs[~mask.ravel()] = -1
    return runs.reshape(mask.shape), np.flatnonzero(starts)


def _overlaps(mask: np.ndarray) -> np.ndarray:
    """The flat index of the first node (j, m) of each stretch of columns
    set on both ring j and ring j + 1: one for each pair of runs of adjacent
    rings that share a column, as two runs cut at the seam overlap in one
    stretch."""
    return np.flatnonzero(_run_starts(mask[:-1] & mask[1:]))


def _beside(idx: np.ndarray, nt: int) -> np.ndarray:
    """The flat index of node (j, m+1) for node (j, m), across the seam."""
    return idx + np.where(idx % nt == nt - 1, 1 - nt, 1)


def _blocked_windings(phase: _DiskPhase, free: np.ndarray) -> list:
    """Sorted |total charge| of the blocked holes of the support.

    A hole is a connected set of free (non-support) nodes, 8-connected,
    together with the faces that touch it; the free nodes of ring 0 are one
    hole, joined through the centre polygon, and a charged face with no free
    corner is a hole on its own. The winding of the phase along any support
    cycle is the sum of the charges it encloses, so a hole with non-zero
    total charge blocks the extension unless it reaches the rim, where no
    support cycle can enclose it.

    Holes are labelled by runs (Rosenfeld & Pfaltz, JACM 13(4), 1966): the
    free runs of each ring, cut at the seam and numbered in flat order, are
    joined by a union-find across the seam, all of ring 0 to its first run,
    and each to the runs of the next ring it touches: where they share a
    column (`_overlaps`) or, diagonally, where one ends at column m and the
    other starts at m + 1 (every other diagonal contact is also a path
    through a shared column or along a ring). A node's run, the last to
    start at or before it, is looked up (`searchsorted`) only where it is
    read: at the nodes of each contact and at the first free corner, which
    the mask gives, of each charged quad.
    """
    charged, charges, centre = phase.charged, phase.charges, phase.centre
    if not charged.size and centre == 0:
        return []
    nr, nt = free.shape
    first = np.flatnonzero(_run_starts(free))
    after = np.concatenate([free[:, 1:], free[:, :1]], axis=1)  # free at the next column
    ends, begins = free & ~after, after & ~free
    out = np.flatnonzero(ends[:-1] & begins[1:])  # (j, m) touches (j+1, m+1)
    into = np.flatnonzero(begins[:-1] & ends[1:])  # (j, m+1) touches (j+1, m)
    shared = _overlaps(free)
    seam = np.flatnonzero(free[:, 0] & free[:, -1]) * nt  # node (j, 0) of each ring
    # corners (j, m), (j, m+1), (j+1, m), (j+1, m+1) of each charged quad
    beside = _beside(charged, nt)
    corners = np.column_stack([charged, beside, charged + nt, beside + nt])
    free_corner = free.ravel()[corners]
    touches = free_corner.any(axis=1)
    # each open quad hands its charge to the hole of its first free corner
    holder = corners[np.arange(charged.size), free_corner.argmax(axis=1)][touches]
    # contact k joins the runs of nodes k and k + joins
    nodes = [shared, out, _beside(into, nt), seam + nt - 1,
             shared + nt, _beside(out, nt) + nt, into + nt, seam, holder]
    labels = np.searchsorted(first, np.concatenate(nodes), side="right") - 1
    joins = (labels.size - holder.size) // 2
    ring0 = np.arange(np.searchsorted(first, nt))  # ring 0's runs are the first labels
    root, _ = _roots(first.size, np.concatenate([labels[:joins], np.zeros_like(ring0)]),
                     np.concatenate([labels[joins:2 * joins], ring0]))
    windings = set(np.abs(charges[~touches]).tolist())
    total = np.zeros(first.size, dtype=np.int64)
    np.add.at(total, root[labels[2 * joins:]], charges[touches])
    if ring0.size:
        total[0] += centre
    elif centre:
        windings.add(abs(centre))
    total[root[first >= (nr - 1) * nt]] = 0  # holes that reach the rim block nothing
    windings.update(np.abs(total[total != 0]).tolist())
    return sorted(windings)


def _roots(count: int, a: np.ndarray, b: np.ndarray, d: np.ndarray | None = None):
    """(root, potential) of `count` labels joined by the contacts
    (a[k], b[k], d[k]), b[k]'s potential d[k] above a[k]'s (0 when d is
    None), by a weighted union-find with path halving: root is the lowest
    label of each set, and potential is above the root's. A contact within
    one set is not read."""
    parent = list(range(count))
    up = [0] * count  # potential above the parent
    for x, y, w in zip(a.tolist(), b.tolist(), [0] * a.size if d is None else d.tolist()):
        # each end walks to its root inline (a call costs more than a walk)
        while parent[x] != x:
            p = parent[x]
            up[x] += up[p]
            parent[x] = grand = parent[p]
            w += up[x]
            x = grand
        while parent[y] != y:
            p = parent[y]
            up[y] += up[p]
            parent[y] = grand = parent[p]
            w -= up[y]
            y = grand
        if x < y:
            parent[y], up[y] = x, w
        elif y < x:
            parent[x], up[x] = y, -w
    for x in range(count):  # a parent is a lower label, already at its root
        up[x] += up[parent[x]]
        parent[x] = parent[parent[x]]
    return np.array(parent, dtype=np.intp), np.array(up, dtype=np.int64)


def _unwrap(phase: np.ndarray, jumps: _DiskPhase, support: np.ndarray) -> np.ndarray:
    """phase + 2 pi n on the support, with n the integer potential of the
    edge jumps, 0 at the first node in flat order of each 4-connected
    component of the support: n rises by its jump along every edge.

    Within a run of the support along a ring (`_ring_runs`) n is a prefix
    sum of the angular jumps. One radial edge for each pair of runs of
    adjacent rings that share a column (`_overlaps`), and the seam, then
    give each run its offset by the weighted union-find `_roots`, from the
    lowest run of its component, which holds the first node. n is
    path-independent when no hole is blocked, so the joins' order is moot."""
    ang, rad = jumps.ang, jumps.rad
    nr, nt = ang.shape
    supp = support.reshape(nr, nt)
    runs, first = _ring_runs(supp)
    along = np.cumsum(ang, axis=1, dtype=np.int64)
    before = (along - ang).ravel()  # n(j, m) - n(j, 0) along ring j, short of the seam
    flat = runs.ravel()
    shared = _overlaps(supp)
    seam = supp[:, -1] & supp[:, 0]
    # contact (a, b, d): n at a node of run b is d above n at its neighbour in run a
    root, potential = _roots(first.size, np.concatenate([flat[shared], runs[seam, -1]]),
                             np.concatenate([flat[shared + nt], runs[seam, 0]]),
                             np.concatenate([before[shared] + rad.ravel()[shared]
                                             - before[shared + nt], along[seam, -1]]))
    offset = potential - before[first][root]  # n at a run's nodes less their `before`
    turns = np.zeros(support.size, dtype=np.int64)
    turns[support] = offset[flat[support]] + before[support]
    return phase + 2.0 * np.pi * turns


def _bridge(theta: np.ndarray, support: np.ndarray) -> np.ndarray:
    """theta, given on the support, carried over the free nodes along the
    rings. On a ring with support, each run of free nodes takes the linear
    bridge between the theta of the two supported nodes that flank it on
    its ring, across the seam too, so it steps by
    (theta_R - theta_L) / (run length + 1). A ring with no support copies
    the nearest ring that has some, the inner one on a tie."""
    nr, nt = support.shape
    theta = theta.reshape(nr, nt)
    # its own flanks: levels._flanks of the ring taken twice cost +1.7% on disk-winding
    # the supported column at or before, and at or after, each column of
    # the ring taken twice round, so that every run has both flanks
    col = np.arange(2 * nt)
    twice = np.tile(support, 2)
    left = np.maximum.accumulate(np.where(twice, col, -1), axis=1)[:, nt:] - nt
    right = np.minimum.accumulate(np.where(twice, col, 2 * nt)[:, ::-1], axis=1)[:, ::-1][:, :nt]
    has = support.any(axis=1)
    j, m = np.nonzero(~support & has[:, None])
    lo, hi = left[j, m], right[j, m]
    start = theta[j, lo % nt]
    out = theta.copy()
    out[j, m] = start + (theta[j, hi % nt] - start) * ((m - lo) / (hi - lo))
    ring = np.arange(nr)
    inner = np.maximum.accumulate(np.where(has, ring, -nr))
    outer = np.minimum.accumulate(np.where(has, ring, 2 * nr)[::-1])[::-1]
    return out[np.where(ring - inner <= outer - ring, inner, outer)].ravel()


def _phase_witness(u: np.ndarray, f: np.ndarray, phase: _DiskPhase,
                   support: np.ndarray) -> np.ndarray:
    """The flat witness values of a scalar disk element with flat samples f
    and phase u = f/|f|: u on the flat support mask, and off it
    exp(i theta), with theta the unwrapped phase bridged along the rings
    (`_bridge`). A witness when no hole is blocked."""
    w = u.copy()
    if not support.all():
        theta = _bridge(_unwrap(np.angle(f), phase, support), support.reshape(phase.ang.shape))
        w[~support] = np.exp(1j * theta[~support])
    return w
