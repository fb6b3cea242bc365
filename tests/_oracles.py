"""Independent oracle implementations used to freeze expected test values.

Everything here deliberately avoids the package's own code paths: the
Philox4x32-10 generator and the telegraph streams in Python integers, the
coherence factor is evaluated in 50-digit arithmetic, the dwell time and
level of one path from its switch times in scalar arithmetic, its noise
phase by a midpoint Riemann sum,
per-trajectory coherences by a scalar walk with ``math.cos``/``math.sin``
and in 40-digit arithmetic, concurrences by the textbook eigensolver
prescription and by the pure-state determinant form, and entropies via
singular values.
"""

from __future__ import annotations

import bisect
import math

import mpmath as mp
import numpy as np

_SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


_WORD = 0xFFFFFFFF


def philox4x32(counter, key):
    """Philox4x32-10 of four 32-bit counter words under two key words, in
    Python integers (Salmon, Moraes, Dror & Shaw, SC'11)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _WORD, (p0 >> 32) ^ c3 ^ k1, p0 & _WORD
        k0, k1 = (k0 + 0x9E3779B9) & _WORD, (k1 + 0xBB67AE85) & _WORD
    return c0, c1, c2, c3


def telegraph_stream(seed, index, gamma, horizon, mu=4.0, cdf=None):
    """(level, switch times) of trajectory ``index`` as the streams define
    it, one scalar draw at a time: Philox keyed by the 64-bit seed at the
    counter (index low, index high, epoch, draw); the level is word 1's low
    bit of epoch 0's draw 0; epoch e of length L = 2*mu/gamma has N switches
    (the uniform of draw 0's words 0 and 1 against the Poisson CDF ``cdf``,
    default from ``math.exp``), at (e + u)*L for its next N uniforms
    sorted, two per draw from draw 0's words 2 and 3 on."""
    key = (seed & _WORD, seed >> 32)

    def draw(e, j):
        return philox4x32((index & _WORD, index >> 32, e, j), key)

    def uniform(a, b):
        return (float((a << 20) ^ (b >> 12)) + 0.5) * 2.0**-52

    level = draw(0, 0)[1] & 1
    if gamma == 0.0:
        return level, []
    if cdf is None:
        cdf = [sum(math.exp(-mu) * mu**j / math.factorial(j) for j in range(k + 1))
               for k in range(31)] + [1.0]
    scale = 2.0 * mu / gamma
    times = []
    e = 0
    while e * scale <= horizon:
        words = draw(e, 0)
        u_count = uniform(words[0], words[1])
        n = sum(1 for c in cdf if c <= u_count)
        u = [uniform(words[2], words[3])]
        j = 1
        while len(u) < n:
            words = draw(e, j)
            u += [uniform(words[0], words[1]), uniform(words[2], words[3])]
            j += 1
        times += [t for t in ((e + x) * scale for x in sorted(u[:n])) if t <= horizon]
        e += 1
    return level, times


def mp_coherence_factor(v, gamma, t, dps: int = 50) -> complex:
    """Coherence decay factor evaluated in high-precision arithmetic."""
    with mp.workdps(dps):
        v, gamma, t = mp.mpf(v), mp.mpf(gamma), mp.mpf(t)
        if gamma == 0:
            return complex((1 + mp.e ** (-1j * v * t)) / 2)
        g = v / gamma
        alpha = mp.sqrt(mp.mpc(1 - g * g))
        a_coef = (1 + 1 / alpha) / 2
        q = mp.e ** (-1j * v * t / 2) * (
            a_coef * mp.e ** (-gamma * (1 - alpha) * t / 2)
            + (1 - a_coef) * mp.e ** (-gamma * (1 + alpha) * t / 2)
        )
        return complex(q)


def mp_entanglement_of_formation(c, dps: int = 50) -> float:
    """Binary-entropy entanglement of formation at concurrence c."""
    with mp.workdps(dps):
        c = mp.mpf(c)
        x = (1 + mp.sqrt(1 - c * c)) / 2
        if x in (0, 1):
            return 0.0
        return float(-(x * mp.log(x) + (1 - x) * mp.log(1 - x)) / mp.log(2))


def dwell(level: int, switch_times, t: float) -> float:
    """Time at the high level over [0, t] of the path that starts at level
    bit ``level`` and flips at each of the ascending ``switch_times``,
    summed stretch by stretch in a scalar loop."""
    total, start, high = 0.0, 0.0, level
    for s in switch_times:
        if s > t:
            break
        if high:
            total += s - start
        start, high = s, 1 - high
    return total + (t - start if high else 0.0)


def riemann_phase(level: int, switch_times, t: float, v: float,
                  n_steps: int = 400001) -> float:
    """v times the time at the high level over [0, t], a midpoint Riemann
    sum of the path's level on n_steps - 1 equal cells."""
    ts = np.linspace(0.0, t, n_steps)
    mids = 0.5 * (ts[1:] + ts[:-1])
    flips = np.searchsorted(np.asarray(switch_times, dtype=float), mids, side="right")
    return v * float(((level + flips) % 2).sum()) * (ts[1] - ts[0])


def level_bit(level: int, switch_times, t: float) -> int:
    """The level bit at time t: ``level`` flipped once per switch at or
    before t."""
    return (level + bisect.bisect_right(list(switch_times), t)) % 2


def phased_bell(theta: float) -> np.ndarray:
    """(|00> + exp(-i*theta)|11>)/sqrt(2), the state of one realization
    whose total phase is theta."""
    return np.array([1.0, 0.0, 0.0, np.exp(-1j * theta)]) / math.sqrt(2.0)


def coherence_walk(level: int, switch_times, t_grid, v: float) -> list[tuple[float, float]]:
    """(Re, Im) of exp(-i*v*dwell) of one trajectory on an ascending grid,
    formed as the batch kernels promise: exp(-i*v*acc) on a level-0 segment,
    and on a level-1 segment the segment factor exp(-i*v*(acc - prev)) times
    the grid factor exp(-i*v*t), multiplied in real arithmetic.  acc is the
    time at the high level up to the last switch, at time prev."""
    acc = prev = 0.0
    lvl = float(level)
    j = 0
    out = []
    for t in map(float, t_grid):
        while j < len(switch_times) and switch_times[j] <= t:
            acc = acc + lvl * (switch_times[j] - prev)
            prev = switch_times[j]
            lvl = 1.0 - lvl
            j += 1
        if lvl == 0.0:
            out.append((math.cos(v * acc), math.sin(-(v * acc))))
            continue
        sr, si = math.cos(v * (acc - prev)), math.sin(-(v * (acc - prev)))
        er, ei = math.cos(v * t), math.sin(-(v * t))
        out.append((sr * er - si * ei, sr * ei + si * er))
    return out


def stretch_sums(levels, switch_times, t_grid, v: float, factor) -> np.ndarray:
    """The (10, m + 1) difference arrays of block_sums in scalar arithmetic,
    row by row and stretch by stretch.  A switch's stretch starts at the
    first index in [g0, m) whose grid time is >= it, g0 being the previous
    start: a binary search of that range (bisect_left, whose comparison is
    false for NaN, as the compiled kernel's is).  ``factor(theta)`` gives
    the parts of exp(-i*theta) for a 1-D array theta."""
    t_grid = [float(t) for t in t_grid]
    m = len(t_grid)
    d = np.zeros((10, m + 1))
    for level, row in zip(levels, switch_times):
        row = [float(s) for s in row]
        acc = prev = 0.0
        lvl = float(level)
        g0 = j = 0
        while True:
            g1 = bisect.bisect_left(t_grid, row[j], g0) if j < len(row) else m
            if g1 > g0:
                high = lvl != 0.0
                theta = np.array([v * (acc - prev if high else acc)])
                re, im = (float(x[0]) for x in factor(theta))
                re = re - 1.0
                terms = [1.0, re, im, re * re, im * im, re * im] if high else [re, im, re * re,
                                                                               im * im]
                for q, x in enumerate(terms, start=4 if high else 0):
                    d[q, g0] += x
                    d[q, g1] -= x
            if g1 == m:
                break
            acc = acc + lvl * (row[j] - prev)
            prev = row[j]
            lvl = 1.0 - lvl
            j += 1
            g0 = g1
    return d


def mp_coherences(level: int, switch_times, t_grid, v: float, dps: int = 40) -> list[complex]:
    """exp(-i*v*dwell) of one trajectory on a grid, with the dwell time
    summed from the switch times in high-precision arithmetic."""
    out = []
    with mp.workdps(dps):
        for t in t_grid:
            t = mp.mpf(float(t))
            edges = [mp.mpf(0)] + [mp.mpf(float(s)) for s in switch_times if s <= t] + [t]
            dwell = sum((edges[i + 1] - edges[i]) * ((level + i) % 2) for i in range(len(edges) - 1))
            out.append(complex(mp.exp(-1j * mp.mpf(v) * dwell)))
    return out


def wootters_eig_route(rho: np.ndarray) -> float:
    """Concurrence via the general eigensolver on rho * rho_tilde.

    This is the textbook prescription; its accuracy is limited to about
    sqrt(eps) on near-pure inputs because of the final square root.
    """
    rho_tilde = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    ev = np.linalg.eigvals(rho @ rho_tilde).real
    lam = np.sort(np.sqrt(np.where(ev < 0.0, 0.0, ev)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def pure_concurrence(state: np.ndarray) -> float:
    """Closed-form concurrence of a two-qubit pure state."""
    a = np.asarray(state)
    return 2.0 * abs(a[0] * a[3] - a[1] * a[2])


def schmidt_entropy(state: np.ndarray) -> float:
    """Entropy of entanglement from the Schmidt (singular) values."""
    s = np.linalg.svd(np.asarray(state).reshape(2, 2), compute_uv=False)
    p = np.clip(s * s, 0.0, 1.0)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def random_pure(rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return vec / np.linalg.norm(vec)


def random_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / rho.trace()


def x_state(q: complex) -> np.ndarray:
    """Bell-corner density matrix with coherence q."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = 0.5
    rho[0, 3] = 0.5 * q
    rho[3, 0] = 0.5 * np.conj(q)
    return rho


# Frozen oracle outputs (50-digit evaluations of the helpers above).
Q_ABS_G5_VT_2PI = 0.52550634913443233      # |mp_coherence_factor(1, 1/5, 2*pi)|
Q_G05_T3 = 0.050965795485648657 - 0.71869008508480034j   # mp_coherence_factor(1, 2, 3)
Q_G10_T25 = 0.11588270423819023 - 0.34875707240047311j   # mp_coherence_factor(1, 1/10, 2.5)
G1_MODULUS_GT2 = 0.73575888234288464       # 2/e, |q| at g=1 and gamma*t = 2
APPROX_G10_VT_PI = 0.085463599915323343    # exp(-pi/20)/10
EF_AT_06 = 0.46899559358928122             # mp_entanglement_of_formation(0.6)
EF_AT_HALF = 0.35457890266526988           # mp_entanglement_of_formation(0.5)
VT_FIRST_PEAK_G5 = 6.4127491508093205      # 2*pi/sqrt(1 - 1/25)
