"""Cauchy sums sum_j w_j (s + u_j)^{-m}, m = 1..3, over the panel grids
of the kernel weights (catalog.build_theorem3 and build_positive_type).

A grid is a run of 15-node panels; |u| grows along it, through panel b
between the radii R_b < R_{b+1}.  A point sums directly only a band of
P panels about |s|; the nodes past the band go through a Taylor table in
s/u and those below it through one in u/s, the one-dimensional split of
Greengard and Rokhlin (J. Comput. Phys. 73, 1987): about 165 terms a
point on theorem3's grid of 1,905 nodes.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# terms per block of a Cauchy sum: 256 KB temporaries, reused call to call
# (at 2^15 malloc returned them each call: page faults, twice the time)
_CAUCHY_BLOCK = 2 ** 14
# outside its band a point has |s/u| and |u/s| at most 1/_SPLIT_RATIO, and
# each Taylor table keeps _TAYLOR_TERMS terms (22 left 5e-13 at m = 3:
# the binomials grow)
_SPLIT_RATIO = 4.0
_TAYLOR_TERMS = 28
# the powers x^j and tau^(J-j), J = _TAYLOR_TERMS + 2, that _cauchy_sums
# pairs with the table's columns, and their binomials at the power m0 + 1
_TAYLOR_POWERS = np.array([np.arange(_TAYLOR_TERMS + 2),
                           np.arange(_TAYLOR_TERMS + 2, 0, -1)], dtype=complex)
_TAYLOR_BINOMIALS = np.array(
    [[[math.comb(j + m0, j) for j in range(_TAYLOR_TERMS + 2)],
      [math.comb(k + m0, k) if k >= 0 else 0
       for k in range(_TAYLOR_TERMS + 1 - m0, -m0 - 1, -1)]]
     for m0 in range(3)], dtype=complex)


class _SplitGrid(NamedTuple):
    """A grid as _cauchy_sums reads it: a point's row is the count of
    limits at or below its key."""
    limits: np.ndarray      # _SPLIT_RATIO * R_b, b = 1 .. panels - P
    band: np.ndarray        # (rows, 2, 15 P) view: band nodes and weights
    const: np.ndarray       # (rows, 5, 2): z's shift and factor, scales
    table: np.ndarray       # (rows, 3, 2 J) view: far G' and near H' by m
    width: int              # terms per point and power: 15 P + 2 J


def _cauchy_sums(s, key, grid, count):
    """[sum_j w_j (s + u_j)^{-m} for m = 1..count] at the flat complex
    points s, as an (s.size, count) array: each point sums its band of
    panels directly, the panels past it through the far table and those
    below it through the near one.  A point's row of terms is [band |
    far | near], summed once per power; the rows go in blocks of about
    _CAUCHY_BLOCK terms, so a point's sums depend on that point alone.
    The key is |s|, negated where s takes the lower ray of a two-sided
    grid."""
    chunk = max(1, _CAUCHY_BLOCK // (count * grid.width))
    if s.size > chunk:
        return np.concatenate([_cauchy_sums(s[k:k + chunk], key[k:k + chunk],
                                            grid, count)
                               for k in range(0, s.size, chunk)])
    row = grid.limits.searchsorted(key, "right")
    band = grid.band[row]                   # the band's nodes and weights
    c = grid.const.take(row, axis=0)
    s = s[:, None]
    n, nodes = band.shape[0], band.shape[2]
    terms = np.empty((n, count, grid.width), complex)
    d = np.add(s, band[:, 0], out=band[:, 0])
    np.reciprocal(d, out=d)
    np.multiply(band[:, 1], d, out=terms[:, 0, :nodes])
    for m in range(1, count):
        np.multiply(terms[:, m - 1, :nodes], d, out=terms[:, m, :nodes])
    del band, d         # the gather goes before the tables' temporaries come
    # [x, tau] = [s, 1/(s + shift)] * factor
    z = s + c[:, 0]
    np.reciprocal(z[:, 1], out=z[:, 1])
    z *= c[:, 1]
    z = np.power(z[:, None, :, None], _TAYLOR_POWERS)
    if count > 1:       # m = 1 has binomials and scales 1
        z = z * (_TAYLOR_BINOMIALS[:count] * c[:, 2:count + 2, :, None])
    np.multiply(z.reshape(n, count, grid.width - nodes),
                grid.table[row, :count], out=terms[:, :, nodes:])
    return np.add.reduce(terms, axis=2)


def _moments(t, w, powers):
    """Each panel's moments sum_i w_i t_i^p, p in the consecutive powers,
    as a (panels, powers, sides) array, from (15, panels, sides) arrays t
    and w: one power at a time."""
    x = w * t ** powers[0]
    m = np.empty((powers.size,) + t.shape[1:], complex)
    for p in range(powers.size):
        np.add.reduce(x, axis=0, out=m[p])
        x *= t
    return m.transpose(1, 0, 2)


def _carried(m, q, powers):
    """At every panel boundary b (the first gives 0), the sum over the
    panels j < b of their moments m_j times (q_{j+1} .. q_{b-1})^p, p in
    the powers, by a doubling scan up the panels."""
    g = np.zeros((m.shape[0] + 1,) + m.shape[1:], complex)
    g[1:] = m
    _scan(g, (np.append(0.0, q)[:, None] ** powers)[..., None] + np.zeros_like(g))
    return g


def _scan(a, c):
    """In place along the first axis, a[i] += c[i] * a[i - 1] for every i
    in turn, in log2(len) steps over the whole array.  The factors c are
    real, at most 1, and of a's shape and type, so that no product casts
    or broadcasts (numpy would buffer it); their products below 1e-200 go
    to 0, since they weigh nothing and would make subnormal numbers, which
    x86 multiplies some hundred times slower."""
    step, flat = 1, c.view(float)
    while step < a.shape[0]:
        a[step:] += c[step:] * a[:-step]
        c[step:] *= c[:-step]
        flat *= flat >= 1e-200
        step *= 2


def _split_grid(u, w, radii):
    """The split of the Cauchy sums over nodes u with weights w, complex
    (sides, 15 * panels) arrays, one side (positive-type) or two (theorem3's
    rays above and below the real axis), with the panel radii R_b.

    A point s sums the band of panels lo .. lo+P-1 directly, lo the
    largest b with 4 R_b <= |s| (clipped to [0, panels - P]), and P the
    least number of panels with R_{b+P} >= 16 R_{b+1} for every b, so
    the nodes past the band have |s/u| <= 1/4 and those below it
    |u/s| <= 1/4 (a grid whose panels are not geometric has P near its
    length, and is summed nearly all directly).  Those go through Taylor
    series of (s+u)^{-m} = sum_k C(k+m-1, k) (-s)^k u^{-k-m} and of its
    mirror in u/s: with R_F = R_{lo+P} and x = -s/R_F,

        far_m = R_F^{-m} sum_k C(k+m-1, k) x^k G_{lo+P, k+m},
        G_{b,n} = sum over panels >= b of w (R_b/u)^n,

    and with R_N = R_lo and tau = -R_N/s,

        near_m = (-1/R_N)^m sum_k C(k+m-1, k) tau^{k+m} H_{lo,k},
        H_{b,k} = sum over panels < b of w (u/R_b)^k.

    The tables hold G/R_F and -H/R_N, so that m = 1 needs no scale and no
    binomial; they take O(nodes * terms) work, in numpy calls per term."""
    sides, panels = u.shape[0], radii.size - 1
    need = radii.searchsorted(_SPLIT_RATIO ** 2 * radii[1:]) - np.arange(panels)
    need = np.maximum.accumulate(need)          # least P for every b up to b
    width = np.arange(1, panels)
    band = int(np.append(width[need[panels - width] <= width], panels)[0])
    rows, j = panels - band + 1, _TAYLOR_TERMS + 2
    # node i of panel b at [i, b, side]
    t, wt = (np.ascontiguousarray(x.reshape(sides, panels, 15).transpose(2, 1, 0))
             for x in (u, w))
    q = radii[:-1] / radii[1:]
    near, far = np.arange(float(_TAYLOR_TERMS)), np.arange(1.0, j + 1)
    # the panels' moments about R_{b+1} for H, and about R_b for G, whose
    # sums run over the panels from the top down
    h = _moments(t / radii[1:, None], wt, near)
    g = _moments(radii[-2::-1, None] / t[:, ::-1], wt[:, ::-1], far)
    del t, wt
    # R_F is inf where the band reaches the last panel and the far table
    # is empty, so that x = 0 there; R_N at lo = 0, where the near table
    # is empty, is any radius > 0, and tau's shift of 1e300 keeps it 0
    # at s = 0
    r_far = radii[band:].copy()
    r_far[-1] = math.inf
    r_near = np.maximum(radii[:rows], radii[1])
    h = _carried(h, q, near)[:rows, ::-1] / -r_near[:, None, None]
    g = _carried(g, q[::-1], far)[rows - 1::-1] / r_far[:, None, None]
    lo = np.arange(rows)
    limits = _SPLIT_RATIO * radii[1:rows]
    at = lo[None]                               # a side's rows of the table
    if sides == 2:
        # the lower ray's rows come first, in reverse, then P - 1 unused
        # rows and the upper ray's: a key -|s| below the real axis finds
        # row rows-1-lo among the limits negated, |s| row rows+P-1+lo
        limits = np.concatenate([-np.nextafter(limits, 0.0)[::-1],
                                 np.zeros(band), limits])
        at = np.stack([lo + rows + band - 1, lo[::-1]])
    # row lo: [G_{lo+P, 1..J} / R_F | 0, 0, -H_{lo, K-1..0} / R_N, 0, 0]
    table = np.zeros((limits.size + 1, 2 * j + 2), complex)
    table[at, :j] = g.transpose(2, 0, 1)
    table[at, j + 2:2 * j] = h.transpose(2, 0, 1)
    del g, h
    scale = np.stack([1.0 / r_far, -1.0 / r_near], -1)
    shift = np.zeros_like(scale)
    shift[0, 1] = 1e300
    const = np.zeros((limits.size + 1, 5, 2), complex)
    const[at] = np.stack([shift, [-1.0, 1.0] * scale ** [1.0, -1.0],
                          scale ** 0, scale, scale ** 2], 1)
    nodes = np.stack([u, w])
    if sides == 2:
        nodes = np.concatenate([nodes[:, 1:, ::-1], nodes[:, :1]], axis=1)
    nodes = nodes.reshape(2, -1)
    item = nodes.itemsize
    return _SplitGrid(
        limits,
        np.lib.stride_tricks.as_strided(
            nodes, (limits.size + 1, 2, 15 * band),
            (15 * item, nodes.strides[0], item), writeable=False),
        const,
        np.lib.stride_tricks.as_strided(
            table, (limits.size + 1, 3, 2 * j), (table.strides[0], item, item),
            writeable=False),
        15 * band + 2 * j)
