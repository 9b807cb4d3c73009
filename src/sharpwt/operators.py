"""Classical operators on grid functions: the Hardy-Littlewood maximal
function, the dyadic (martingale) square function, the continuous square
functions built on a fixed polynomial bump, and truncated / maximal Hilbert
transforms.

Every operator evaluates at cell centers.  Convolutions against the step
function are exact closed forms (polynomial antiderivatives, log terms), and
translation invariance of the grid turns each into one discrete convolution:
np.convolve up to 4096 cells, a zero-padded numpy FFT above.

Every psi square function uses the one bump PSI, and the cone version
builds the quadrature of its own grid from `nodes_per_box`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from sharpwt.gridfn import GridFunction
from sharpwt.intrinsic import ConeQuadrature, SquareFunctionEngine, _node_cells


# ---------------------------------------------------------------------------
# sliding-window machinery for maximal functions
# ---------------------------------------------------------------------------


def _trailing_max(s: np.ndarray, w: int) -> np.ndarray:
    """out[..., x] = max(s[..., max(0, x-w+1) : x+1]) along the last axis,
    by doubling between two buffers: T_1 = s and
    T_{k+j}[x] = max(T_k[x], T_k[x-j]) with j = min(k, w-k), the cells
    x < j keeping T_k[x].  Max is exact, so this is the window max bit for
    bit."""
    cur = s.copy()
    nxt = np.empty_like(cur)
    k = 1
    while k < w:
        j = min(k, w - k)
        nxt[..., :j] = cur[..., :j]
        np.maximum(cur[..., j:], cur[..., :-j], out=nxt[..., j:])
        cur, nxt = nxt, cur
        k += j
    return cur


def maximal(f: GridFunction) -> GridFunction:
    """Grid Hardy-Littlewood maximal function: per cell, the sup of averages
    of |f| over grid-aligned dyadic-length intervals containing the cell."""
    v = np.abs(f.values)
    n = v.size
    out = v.copy()
    prefix = np.concatenate(([0.0], np.cumsum(v)))
    avg = np.empty(n)  # avg[a] = mean of |f| over [a, a+w), -inf past the last window
    w = 2
    while w <= n:
        np.subtract(prefix[w:], prefix[:-w], out=avg[: n - w + 1])
        avg[: n - w + 1] /= w
        avg[n - w + 1 :] = -np.inf
        np.maximum(out, _trailing_max(avg, w), out=out)
        w *= 2
    return f.with_values(out)


def dyadic_square(f: GridFunction) -> GridFunction:
    """Martingale square function on the dyadic tree of the domain, root
    term included: S_d f(x)^2 = (avg f)^2 + sum (avg_Q f - avg_Qhat f)^2."""
    v = f.values
    n = v.size
    acc = np.full(n, float(np.mean(v)) ** 2)
    parent = np.full(1, np.mean(v))
    size = n // 2
    while size >= 1:
        avg = v.reshape(n // size, size).mean(axis=1)
        diff = avg - np.repeat(parent, 2)
        acc += np.repeat(diff * diff, size)
        parent = avg
        size //= 2
    return f.with_values(np.sqrt(acc))


# ---------------------------------------------------------------------------
# the fixed polynomial bump and its square functions
# ---------------------------------------------------------------------------


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

    def holder_seminorm(self, alpha: float, samples: int = 4001) -> float:
        """Numerical sup of |psi(u)-psi(v)| / |u-v|^alpha on a dense grid."""
        u = np.linspace(-1.0, 1.0, samples)
        vals = self(u)
        best = 0.0
        for lag in range(1, samples):
            num = np.abs(vals[lag:] - vals[:-lag])
            best = max(best, float(np.max(num)) / (u[lag] - u[0]) ** alpha)
        return best


PSI = PsiKernel()


def psi_convolve_at(f: GridFunction, y: float, t: float) -> float:
    """Exact f * psi_t(y) for step f, psi_t(x) = t^-1 psi(x/t)."""
    edges = f.cell_edges()
    a = max(int(np.searchsorted(edges, y - t, "right")) - 1, 0)
    b = min(int(np.searchsorted(edges, y + t, "left")), f.ncells)
    if b <= a:
        return 0.0
    w = PSI.cumulative((y - edges[a : b + 1]) / t)
    return float(np.dot(f.values[a:b], -np.diff(w)))


def psi_convolve_grid(f: GridFunction, t: float) -> np.ndarray:
    """f * psi_t at every cell center, via one translation-invariant kernel."""
    h = float(f.cell_width)
    reach = int(np.ceil(t / h)) + 1
    d = np.arange(-reach, reach + 1)
    w = PSI.cumulative((d[:, None] + np.array([0.5, -0.5])[None, :]) * h / t)
    return _conv_wide(f.values, w[:, 0] - w[:, 1])


def _conv_wide(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The middle values.size entries of the full convolution, the ones
    centered on each cell.  Above 4096 cells by FFT over L >= N + K - 1 -
    start points: the circular wrap-around lands only outside them."""
    n, k = values.size, kernel.size
    start = (k - 1) // 2
    if n <= 4096:  # direct sum for small grids
        return np.convolve(values, kernel)[start : start + n]
    length = 1 << (n + k - 2 - start).bit_length()  # smallest power of two >= n + k - 1 - start
    spectrum = np.fft.rfft(values, length) * np.fft.rfft(kernel, length)
    return np.fft.irfft(spectrum, length)[start : start + n]


def _psi_rows(f: GridFunction, ys: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """psi_convolve_at at every node (ys[n], ts[n]), one row-wise dot per
    chunk of nodes."""
    out = np.zeros(ys.size)
    for part, edges, vals in _node_cells(f, ys - ts, ys + ts, 1):
        cdf = PSI.cumulative((ys[part, None] - edges) / ts[part, None])
        out[part] = np.einsum("ij,ij->i", vals, -np.diff(cdf, axis=1))
    return out


def psi_engine(f: GridFunction, nodes_per_box: int = 1) -> SquareFunctionEngine:
    """SquareFunctionEngine on f's own quadrature whose node functional is
    |f * psi_t(y)|, exact per node (psi_convolve_at is the one-node oracle)."""
    quad = ConeQuadrature.for_grid(f, nodes_per_box)
    return SquareFunctionEngine(f, quad, lambda ys, ts: np.abs(_psi_rows(f, ys, ts)))


def s_psi(f: GridFunction, beta: float, nodes_per_box: int = 1) -> GridFunction:
    """Continuous square function over the cone of aperture beta, on the
    Carleson-box quadrature the intrinsic engines use."""
    return psi_engine(f, nodes_per_box).g_cone(beta)


def g_psi(f: GridFunction, t_levels: tuple[int, int] | None = None) -> GridFunction:
    """Vertical square function g_psi: log-midpoint quadrature of
    int |f * psi_t(x)|^2 dt/t over the dyadic t-ladder."""
    if t_levels is None:
        t_levels = (-f.level_L, f.resolution_s)
    k_top, k_bot = t_levels
    acc = np.zeros(f.ncells)
    ln2 = np.log(2.0)
    for k in range(k_top, k_bot):  # octave [2^-k-1?, ...): t in [2^-k-1 .. ]
        t = float(np.sqrt(2.0) * 0.5**(k + 1))  # log-midpoint of [2^-(k+1), 2^-k)
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


def _hilbert_kernel(n: int, h: float, delta: float) -> np.ndarray:
    """k[d] = int over u in [(d-1/2)h, (d+1/2)h], |u|>delta, of du/u."""
    d = np.arange(-n, n + 1, dtype=float)
    a = (d - 0.5) * h
    b = (d + 0.5) * h
    out = np.zeros(d.size)
    # negative piece [a, min(b, -delta)]
    hi = np.minimum(b, -delta)
    m = a < hi
    out[m] += np.log(-hi[m]) - np.log(-a[m])
    # positive piece [max(a, delta), b]
    lo = np.maximum(a, delta)
    m = lo < b
    out[m] += np.log(b[m]) - np.log(lo[m])
    return out


def hilbert_truncated(f: GridFunction, delta) -> GridFunction:
    """Exact convolution of step f with (1/x) chi_{|x|>delta} at cell centers."""
    delta = float(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    h = float(f.cell_width)
    kernel = _hilbert_kernel(f.ncells, h, delta)
    return f.with_values(_conv_wide(f.values, kernel))


def hilbert(f: GridFunction) -> GridFunction:
    """Principal value resolved at grid scale: truncation at one cell width."""
    return hilbert_truncated(f, float(f.cell_width))


def hilbert_max(f: GridFunction) -> GridFunction:
    """T* f: max of |truncated transforms| over the delta ladder."""
    out = np.zeros(f.ncells)
    for delta in truncation_ladder(f):
        np.maximum(out, np.abs(hilbert_truncated(f, float(delta)).values), out=out)
    return f.with_values(out)
