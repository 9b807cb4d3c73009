"""Classical operators on grid functions: the Hardy-Littlewood maximal
function, the dyadic (martingale) square function, the continuous square
functions built on a fixed polynomial bump, and truncated / maximal Hilbert
transforms.

The maximal function takes, per window length w from the longest down,
the trailing max of the window averages by log2 w doubling passes of
np.maximum.  Above 2^16 cells each w <= 2^15 runs in chunks of 2^15
output cells, each chunk's buffer holding its w - 1 cells of history, so
the passes stay in cache.  On those grids each w >= 128 also skips every
block of w / 4 output cells where a prefix-sum bound on each window
holding it is at most the block's least value so far, so that no window
of w can raise it; once a length keeps more than 9 blocks in 10, the
input is dense and the rest of the call runs every chunk.  A pass that
is not bounded covers only the cells whose windows of w meet f's nonzero
cells [a, b), [a - w + 1, b + w - 1): any other window averages +0.0,
which cannot raise |f|.  Max is exact, so neither the order, the chunks
nor the skipped blocks and cells change a bit of the whole-grid pass.

The dyadic square function carries its running sum down the tree, one
entry per cube, so a level of k cubes costs k additions, not one per
cell, and every cell still receives its additions in the same order.  It
carries only the cubes that meet [a, b): a cube outside it takes its sum
at once, since every finer term under it is (+-0 - +-0)^2 = +0.0.

Every operator evaluates at cell centers.  Convolutions against the step
function are exact closed forms (polynomial antiderivatives, log terms), and
translation invariance of the grid turns each into one discrete convolution:
np.convolve up to 4096 cells, a zero-padded numpy FFT above, over the
shortest 2^k or 3 * 2^k points that keep the wrap-around off the outputs.

The Hilbert transform convolves only f's cells [a, b) from the first
nonzero one to the last, m = b - a of them, with the n + m - 1 kernel
entries they reach from the n outputs.  The FFT length follows from
n + m - 1 alone: on n = 2^k cells an f whose nonzero cells span half of
them takes 3n/2 points, and a full support still takes 2n.
Every truncated Hilbert kernel on a grid comes from one table of the logs
of its cell edges, log((j + 1/2) h): a cell's log difference, or the log of
delta for the cell that holds it, bitwise what the per-cell sum of the two
pieces gives.  `hilbert_truncated` builds one `_HilbertConvolution` per
call; the one `hilbert_on` returns serves every function on its grid and
builds the kernel and its spectrum once per run of one support.
`hilbert_max` transforms f once and builds each truncation's kernel from
one table.

Every psi square function uses the one bump PSI, and the cone version
builds the quadrature of its own grid from `nodes_per_box`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sharpwt.gridfn import GridFunction, prefix_sums
from sharpwt.intrinsic import ConeQuadrature, SquareFunctionEngine, _node_cells


# ---------------------------------------------------------------------------
# sliding-window machinery for maximal functions
# ---------------------------------------------------------------------------

_MAX_CHUNK = 1 << 15  # output cells per chunk of `maximal`, two buffers of up to 512 KB
_BOUND_FROM = 128  # shortest w whose output blocks of w // 4 cells `maximal` bounds


def _trailing_max(s: np.ndarray, spare: np.ndarray, w: int) -> np.ndarray:
    """out[..., x] = max(s[..., max(0, x-w+1) : x+1]) along the last axis,
    by doubling between the two buffers s and spare (same shape), which it
    overwrites: T_1 = s and T_{k+j}[x] = max(T_k[x], T_k[x-j]) with
    j = min(k, w-k), the cells x < j keeping T_k[x].  Returns the buffer
    that holds the result.  Max is exact, so this is the window max bit for
    bit."""
    cur, nxt = s, spare
    k = 1
    while k < w:
        j = min(k, w - k)
        nxt[..., :j] = cur[..., :j]
        np.maximum(cur[..., j:], cur[..., :-j], out=nxt[..., j:])
        cur, nxt = nxt, cur
        k += j
    return cur


def _block_averages(prefix: np.ndarray, ln: int, size: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Per block [s, min(s + size, hi)) of `size` window starts, s = lo,
    lo + size, ... below hi (default: every start, so that the last block
    is the one start n - ln), the sum over the cells
    [s, min(s + size, hi) - 1 + ln) that hold every window of the block,
    divided by ln: at least each window's computed average, since prefix
    sums of nonnegative cells do not decrease in floating point and
    subtraction and division round monotonically."""
    if hi is None:
        hi = prefix.size - ln
    upper = np.append(prefix[lo + size - 1 + ln : hi - 1 + ln : size], prefix[hi - 1 + ln])
    return (upper - prefix[lo:hi:size]) / ln


def _open_runs(bound: np.ndarray, low: np.ndarray) -> np.ndarray | None:
    """The runs [b0, b1) of output blocks of w // 4 cells that the windows
    of length w may raise, as the rows of an array, or None when more than
    9 blocks in 10 may.  Block c is held only by the windows starting in
    the blocks c - 4 .. c, so it is skipped when their largest `bound` is
    at most `low`, a lower bound of `out` on it.  Two runs less than 4
    blocks (w cells) apart are one, since a separate run would recompute
    the w - 1 cells of history between them."""
    held = np.concatenate((bound, np.full(low.size - bound.size, -np.inf)))
    keep = _trailing_max(held, np.empty_like(held), 5) > low
    if 10 * np.count_nonzero(keep) > 9 * keep.size:
        return None
    if not keep.any():
        return np.empty((0, 2), dtype=np.intp)
    flips = np.flatnonzero(np.diff(keep, prepend=False, append=False)).reshape(-1, 2)
    far = flips[1:, 0] - flips[:-1, 1] >= 4
    return np.stack((flips[np.append(True, far), 0], flips[np.append(far, True), 1]), axis=1)


def maximal(f: GridFunction) -> GridFunction:
    """Grid Hardy-Littlewood maximal function: per cell, the sup of averages
    of |f| over grid-aligned dyadic-length intervals containing the cell.

    The lengths run from the longest down.  On grids of more than
    2 _MAX_CHUNK cells, each w <= _MAX_CHUNK goes through the outputs in
    chunks of _MAX_CHUNK cells: the averages of the windows that hold a
    chunk's cells (the chunk's own starts and the w - 1 before them) go
    straight from the prefix sums into a buffer, whose trailing max is the
    chunk's part of the whole-grid one.  On those grids each w from
    _BOUND_FROM on also skips the output blocks of w // 4 cells that no
    window of it can raise (`_open_runs`), until a length keeps more than
    9 blocks in 10.  Every other pass covers the cells
    [a - w + 1, b + w - 1) around f's nonzero cells [a, b), the only ones
    a window of w that meets them holds; the rest keep |f| = +0.0, as a
    window of zeros averages +0.0.  All-zero input returns |f|."""
    out = np.abs(f.values)
    support = _support(out)
    if support is None:
        return f.with_values(out)
    a, b = support
    n = out.size
    prefix = prefix_sums(out)
    avg = np.empty(n)  # avg[a] = mean of |f| over [a, a+w), -inf past the last window
    spare = np.empty(n)
    bounded = n > 2 * _MAX_CHUNK
    low = None  # per output block of w // 4 cells, a lower bound of out
    for w in (1 << k for k in range(n.bit_length() - 1, 0, -1)):
        m = n - w + 1  # windows of length w
        if m <= w + 1:
            np.subtract(prefix[w:], prefix[:-w], out=avg[:m])
            avg[:m] /= w
            # cell x < w lies in the windows starting at 0 .. min(x, m-1), a
            # running max from the left; cell x >= w in those starting at
            # x-w+1 .. m-1, a running max from the right
            k = min(w, m)
            head = np.maximum.accumulate(avg[:k])
            np.maximum(out[:k], head, out=out[:k])
            np.maximum(out[k:w], head[-1], out=out[k:w])
            np.maximum(out[w:], np.maximum.accumulate(avg[m - 1 : 0 : -1])[::-1], out=out[w:])
            continue
        step = _MAX_CHUNK if n > 2 * _MAX_CHUNK and w <= _MAX_CHUNK else n
        size = w // 4
        runs = None
        if bounded and w >= _BOUND_FROM:
            # out only grows, so a block's earlier minimum still bounds it
            low = out.reshape(-1, size).min(axis=1) if low is None else np.repeat(low, 2)
            runs = _open_runs(_block_averages(prefix, w, size), low)
            bounded = runs is not None
        for r0, r1 in [(max(a - w + 1, 0), min(b + w - 1, n))] if runs is None else (runs * size).tolist():
            for c0 in range(r0, r1, step):
                c1 = min(c0 + step, r1)
                lo = max(c0 - w + 1, 0)  # the first window that holds cell c0
                hi = min(c1, m)
                buf = avg[: c1 - lo]
                np.subtract(prefix[lo + w : hi + w], prefix[lo:hi], out=buf[: hi - lo])
                buf[: hi - lo] /= w
                buf[hi - lo :] = -np.inf
                np.maximum(out[c0:c1], _trailing_max(buf, spare[: c1 - lo], w)[c0 - lo :], out=out[c0:c1])
            if runs is not None:
                low[r0 // size : r1 // size] = out[r0:r1].reshape(-1, size).min(axis=1)
    return f.with_values(out)


def dyadic_square(f: GridFunction) -> GridFunction:
    """Martingale square function on the dyadic tree of the domain, root
    term included: S_d f(x)^2 = (avg f)^2 + sum (avg_Q f - avg_Qhat f)^2.

    The sum is carried down the tree, one entry per cube: a child's is its
    squared difference plus its parent's, so every cell receives the same
    additions in the same order as a running sum over the cells would.
    Only the cubes that meet f's nonzero cells [a, b) are carried.  A child
    outside [a, b) is settled at its own sum, its parent's plus
    (0 - parent average)^2: every finer term under it is (+-0 - +-0)^2 = +0.0,
    which leaves a sum of squares unchanged."""
    v = f.values
    n = v.size
    support = _support(v)
    if support is None:
        return f.with_values(np.zeros(n))
    a, b = support
    sums = np.empty(n)  # each cell's sum, written when its cube is settled
    m = np.mean(v)
    acc = np.full(1, float(m) ** 2)
    parent = np.full(1, m)
    j0 = 0  # the first carried cube of the level above
    size = n // 2
    while size >= 1:
        c0, c1 = a // size, (b - 1) // size + 1  # the cubes of this level that meet [a, b)
        part = v[c0 * size : c1 * size]
        if size == 1:
            avg = part  # bitwise the mean of each one-cell row
        elif size == 2:
            # bitwise the mean of each pair, without the axis-1 reduction's overhead
            avg = (part[0::2] + part[1::2]) / 2
        else:
            avg = part.reshape(c1 - c0, size).mean(axis=1)
        # the carried cubes' children outside [a, b): none or one at each end
        lead, tail = c0 - 2 * j0, 2 * (j0 + parent.size) - c1
        child = np.concatenate((np.zeros(lead), avg, np.zeros(tail))) if lead or tail else avg
        diff = child.reshape(-1, 2) - parent[:, None]  # each child minus its parent
        diff *= diff
        diff += acc[:, None]
        diff = diff.reshape(-1)
        if lead:
            sums[(c0 - 1) * size : c0 * size] = diff[0]
        if tail:
            sums[c1 * size : (c1 + 1) * size] = diff[-1]
        acc = diff[lead : diff.size - tail]
        parent, j0 = avg, c0
        size //= 2
    np.sqrt(sums[:a], out=sums[:a])
    np.sqrt(acc, out=sums[a:b])
    np.sqrt(sums[b:], out=sums[b:])
    return f.with_values(sums)


# ---------------------------------------------------------------------------
# the fixed polynomial bump and its square functions
# ---------------------------------------------------------------------------

_HOLDER_SAMPLES = 4001  # grid points on [-1, 1] of PsiKernel.holder_seminorm
_LAG_CHUNK = 32  # lags per 2-D pass of PsiKernel.holder_seminorm, a 1 MB buffer at 4001 samples


def _even_poly_integral(m: int) -> Fraction:
    """int_{-1}^{1} (1-x^2)^m dx as an exact rational."""
    # expand (1-x^2)^m by the binomial theorem; int x^{2j} = 2/(2j+1)
    from math import comb

    return sum(Fraction((-1) ** j * comb(m, j) * 2, 2 * j + 1) for j in range(m + 1))


class PsiKernel:
    """psi(x) = (1-x^2)^2 - kappa (1-x^2)^3 on [-1,1], kappa the constant
    that makes the mean vanish exactly (kappa = (16/15)/(32/35) = 7/6)."""

    kappa = _even_poly_integral(2) / _even_poly_integral(3)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        k = float(self.kappa)
        y = 1.0 - x * x
        out = y * y - k * y * y * y
        return np.where(np.abs(x) <= 1.0, out, 0.0)

    def cumulative(self, x) -> np.ndarray:
        """int_{-1}^{clamp(x)} psi; vanishes at both ends (zero mean)."""
        x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
        k = float(self.kappa)
        # psi = (1-k) + (3k-2) x^2 + (1-3k) x^4 + k x^6
        c0, c2, c4, c6 = 1.0 - k, 3.0 * k - 2.0, 1.0 - 3.0 * k, k
        anti = c0 * x + c2 * x**3 / 3.0 + c4 * x**5 / 5.0 + c6 * x**7 / 7.0
        at_m1 = -(c0 + c2 / 3.0 + c4 / 5.0 + c6 / 7.0)
        return anti - at_m1

    def holder_seminorm(self) -> float:
        """Numerical sup of |psi(u)-psi(v)| / |u-v|^(1/2) on the grid u of
        `_holder_peaks`."""
        u, peaks = self._holder_peaks()
        # the scalar ** of each lag, as a per-lag loop takes it
        spans = np.array([(u[lag] - u[0]) ** 0.5 for lag in range(1, u.size)])
        return float(np.max(peaks / spans, initial=0.0))

    def _holder_peaks(self) -> tuple[np.ndarray, np.ndarray]:
        """The _HOLDER_SAMPLES-point grid u of [-1, 1] and, per lag, the max
        of |psi(u[i + lag]) - psi(u[i])|, per chunk of lags as one 2-D
        array: row j holds psi(u[i + lag_j]) - psi(u[i]) for every i, NaN
        past the grid's end, which np.fmax skips."""
        samples = _HOLDER_SAMPLES
        u = np.linspace(-1.0, 1.0, samples)
        vals = self(u)
        padded = np.concatenate([vals, np.full(_LAG_CHUNK, np.nan)])
        peaks = np.empty(samples - 1)
        buf = np.empty((_LAG_CHUNK, samples))
        for lo in range(1, samples, _LAG_CHUNK):
            hi = min(lo + _LAG_CHUNK, samples)
            rows = np.lib.stride_tricks.sliding_window_view(padded[lo:], samples - lo)[: hi - lo]
            diff = np.subtract(rows, vals[: samples - lo], out=buf[: hi - lo, : samples - lo])
            np.abs(diff, out=diff)
            peaks[lo - 1 : hi - 1] = np.fmax.reduce(diff, axis=1)
        return u, peaks


PSI = PsiKernel()


def psi_convolve_grid(f: GridFunction, t: float) -> np.ndarray:
    """f * psi_t at every cell center, via one translation-invariant kernel."""
    h = float(f.cell_width)
    reach = int(np.ceil(t / h)) + 1
    d = np.arange(-reach, reach + 1)
    w = PSI.cumulative((d[:, None] + np.array([0.5, -0.5])[None, :]) * h / t)
    return _conv_wide(f.values, w[:, 0] - w[:, 1])


def _fft_length(need: int) -> int:
    """The shortest 2^j or 3 * 2^j points that are at least `need`."""
    two = 1 << (need - 1).bit_length()
    return 3 * two // 4 if 3 * two // 4 >= need else two


class _WideConvolution:
    """The n outputs, one centred on each cell, of the convolution of n cell
    values, zero outside the cells [a, b), with a kernel of k entries
    centred on its middle one; [a, b) must be every cell, or the kernel
    must have at least 2n - 1 entries.  Only values[a:b] and the kernel
    entries `taps` that they reach from the n outputs are convolved:
    np.convolve up to 4096 cells, a zero-padded numpy FFT above, over the
    shortest 2^j or 3 * 2^j points that hold the outputs and keep the
    circular wrap-around before the first of them.  The direct sum stays
    up to 4096 cells because it keeps exact zeros where the kernel does
    not reach f's support; the FFT leaves values near 1e-17 there, which
    `test_s_psi_zero_and_jump_locality` rejects already at 64 cells.  Each
    side enters through `values` or `kernel`, so a side shared by several
    convolutions is sliced and transformed once."""

    def __init__(self, n: int, k: int, support: tuple[int, int]):
        a, b = support
        centre = (k - 1) // 2
        lo, hi = max(centre + 1 - b, 0), min(centre + n - a, k)
        self.n = n
        self.cells, self.taps = slice(a, b), slice(lo, hi)
        self.start = centre - a - lo  # the full convolution's index of output 0
        tail = (b - a) + (hi - lo) - 1 - self.start
        self.length = 0 if n <= 4096 else _fft_length(tail)

    def _transform(self, x: np.ndarray) -> np.ndarray:
        return np.fft.rfft(x, self.length) if self.length else x

    def values(self, values: np.ndarray) -> np.ndarray:
        return self._transform(values[self.cells])

    def kernel(self, kernel: np.ndarray) -> np.ndarray:
        return self._transform(kernel[self.taps])

    def __call__(self, values_t: np.ndarray, kernel_t: np.ndarray) -> np.ndarray:
        """The convolution from the transforms of the values and the kernel."""
        if self.length:
            full = np.fft.irfft(values_t * kernel_t, self.length)
        else:
            full = np.convolve(values_t, kernel_t)
        return full[self.start : self.start + self.n]


def _conv_wide(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    conv = _WideConvolution(values.size, kernel.size, (0, values.size))
    return conv(conv.values(values), conv.kernel(kernel))


def _psi_rows(f: GridFunction, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Exact f * psi_t(y) for step f, psi_t(x) = t^-1 psi(x/t), at every node
    (ys[n], ts[n]), one row-wise dot per chunk of nodes."""
    edges = f.cell_edges()
    out = np.zeros(ys.size)
    for part, idx, vals in _node_cells(f, edges, ys - ts, ys + ts, 1):
        cdf = PSI.cumulative((ys[part, None] - edges[idx]) / ts[part, None])
        out[part] = np.einsum("ij,ij->i", vals, -np.diff(cdf, axis=1))
    return out


def psi_engine(f: GridFunction, nodes_per_box: int = 1) -> SquareFunctionEngine:
    """SquareFunctionEngine on f's own quadrature whose node functional is
    |f * psi_t(y)|, exact per node (tests/oracles.py keeps the one-node
    oracle, psi_convolve_at)."""
    quad = ConeQuadrature.for_grid(f, nodes_per_box)
    return SquareFunctionEngine(f, quad, lambda ys, ts: np.abs(_psi_rows(f, ys, ts)))


def s_psi(f: GridFunction, beta: float = 1.0, nodes_per_box: int = 1) -> GridFunction:
    """Continuous square function over the cone of aperture beta, on the
    Carleson-box quadrature the intrinsic engines use."""
    return psi_engine(f, nodes_per_box).g_cone(beta)


def g_psi(f: GridFunction) -> GridFunction:
    """Vertical square function g_psi: log-midpoint quadrature of
    int |f * psi_t(x)|^2 dt/t over the dyadic t-ladder, one octave per level
    k in [-L, s): from the domain's side down to the cell width."""
    if f.ncells < 2:
        raise ValueError("g_psi needs at least two cells: on one, its t-ladder [-L, s) is empty")
    acc = np.zeros(f.ncells)
    ln2 = np.log(2.0)
    for k in range(-f.level_L, f.resolution_s):  # the octave [2^-(k+1), 2^-k) of t
        t = float(np.sqrt(2.0) * 0.5**(k + 1))  # its log-midpoint
        conv = psi_convolve_grid(f, t)
        acc += conv * conv * ln2
    return f.with_values(np.sqrt(acc))


# ---------------------------------------------------------------------------
# Hilbert transform with truncated kernels
# ---------------------------------------------------------------------------


def truncation_ladder(f: GridFunction) -> list[Fraction]:
    """delta values: cell-width multiples h * 2^m from h to twice the
    domain length."""
    h = f.cell_width
    return [h * 2**m for m in range(f.level_L + f.resolution_s + 2)]


def _log_table(n: int, h: float) -> np.ndarray:
    """log((j + 1/2) h) for j = 0 .. n: the logs of the right half's cell
    edges of a kernel on n cells."""
    return np.log((np.arange(n + 1) + 0.5) * h)


def _hilbert_kernel(table: np.ndarray, h: float, delta: float) -> np.ndarray:
    """k[d] = int over u in [(d-1/2)h, (d+1/2)h], |u|>delta, of du/u, for
    d = -n .. n, from table = _log_table(n, h).

    A right-half cell d >= 1 whose left edge is at least delta takes
    table[d] - table[d-1], the cell holding delta inside it takes
    table[d] - log(delta), and the cells inside |u| <= delta take 0.  The
    centre cell takes 0 too: for delta < h/2 its two pieces cancel exactly.
    The kernel is odd, and the left half is written as 0.0 - k so that its
    zeros keep the sign the direct sum of the two pieces gives them."""
    n = table.size - 1
    kernel = np.zeros(2 * n + 1)
    right = kernel[n:]  # d = 0 .. n
    j = max(math.ceil(Fraction(delta) / Fraction(h) - Fraction(1, 2)), 0)  # first edge (j + 1/2) h >= delta
    np.subtract(table[j + 1 :], table[j:-1], out=right[j + 1 :])
    if 1 <= j <= n and Fraction(delta) < (j + Fraction(1, 2)) * Fraction(h):
        right[j] = table[j] - np.log(delta)
    np.subtract(0.0, right[:0:-1], out=kernel[:n])
    return kernel


def _support(values: np.ndarray) -> tuple[int, int] | None:
    """[a, b): the first nonzero cell and one past the last, or None when
    every cell is zero.  Values nonzero at both ends need no scan."""
    if values[0] != 0 and values[-1] != 0:
        return 0, values.size
    nonzero = values != 0
    a = int(nonzero.argmax())
    if not nonzero[a]:
        return None
    return a, nonzero.size - int(nonzero[::-1].argmax())


class _HilbertConvolution:
    """f -> the truncated transform at delta of a step function f on
    `grid`'s cells, convolving only the cells from f's first nonzero one to
    the last.  The spectrum of the kernel entries that range reaches is
    kept for the last range seen; another range builds the kernel again,
    so that it is not held between calls."""

    def __init__(self, grid: GridFunction, delta: float):
        self.n, self.width, self.delta = grid.ncells, grid.cell_width, delta
        self.support = self.conv = self.kernel_t = None

    def __call__(self, f: GridFunction) -> GridFunction:
        if f.ncells != self.n or f.cell_width != self.width:
            raise ValueError("function and bound operator live on different grids")
        support = _support(f.values)
        if support is None:
            return f.with_values(np.zeros(self.n))
        if support != self.support:
            h = float(self.width)
            self.support, self.conv = support, _WideConvolution(self.n, 2 * self.n + 1, support)
            self.kernel_t = self.conv.kernel(_hilbert_kernel(_log_table(self.n, h), h, self.delta))
        return f.with_values(self.conv(self.conv.values(f.values), self.kernel_t))


def hilbert_truncated(f: GridFunction, delta) -> GridFunction:
    """Exact convolution of step f with (1/x) chi_{|x|>delta} at cell centers."""
    delta = float(delta)
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    return _HilbertConvolution(f, delta)(f)


def hilbert(f: GridFunction) -> GridFunction:
    """Principal value resolved at grid scale: truncation at one cell width."""
    return hilbert_truncated(f, float(f.cell_width))


def hilbert_on(grid: GridFunction) -> _HilbertConvolution:
    """`hilbert` for functions on `grid`'s cells, with the kernel and its
    spectrum built once per run of calls on one support."""
    return _HilbertConvolution(grid, float(grid.cell_width))


def hilbert_max(f: GridFunction) -> GridFunction:
    """T* f: max of |truncated transforms| over the delta ladder.  f's
    cells from its first nonzero one to the last are transformed once, and
    every truncation's kernel comes from one log table."""
    out = np.zeros(f.ncells)
    support = _support(f.values)
    if support is None:
        return f.with_values(out)
    h = float(f.cell_width)
    table = _log_table(f.ncells, h)
    conv = _WideConvolution(f.ncells, 2 * f.ncells + 1, support)
    values_t = conv.values(f.values)
    for delta in truncation_ladder(f):
        kernel_t = conv.kernel(_hilbert_kernel(table, h, float(delta)))
        np.maximum(out, np.abs(conv(values_t, kernel_t)), out=out)
    return f.with_values(out)
