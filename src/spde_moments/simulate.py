"""Seeded Monte Carlo simulators for the 1-D heat and wave cases and the
exact second moments of the heat scheme.

The wave scheme steps the mild solution on its characteristic lattice
(kappa dt = dx) with the discrete d'Alembert recursion, on the backward
light cone of its last probe alone: the kernel has finite speed, so this is
the scheme on the infinite lattice, and the wave reads no domain
(domain_half_width sets the heat scheme's truncation only).  All noise
comes from counter-based Philox streams addressed by (seed, time step,
absolute cell), so results are bit-reproducible and a cell's noise does
not depend on the domain truncation.  The heat scheme takes Rademacher
(+-1) increments, one raw bit per path, so its first and second moments
are those of the Gaussian scheme (higher moments are not) and a path's
noise does not depend on the number of paths; the wave scheme keeps
Gaussian increments, since its fourth moments depend on the law.  Both run
on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # loaded with the module, not by the first simulator call

from .errors import InvalidParams, StabilityViolated
from .model import ModelParams, _require_integer, _require_positive, j0
from .moments import MomentCurve

__all__ = [
    "SimConfig", "SimOutput", "she_scheme_second_moment", "simulate_she", "simulate_swe",
]


@dataclass(frozen=True)
class SimConfig:
    dx: float
    dt: float
    domain_half_width: float
    t_end: float
    n_paths: int
    seed: int

    def __post_init__(self):
        for name in ("dx", "dt", "domain_half_width", "t_end"):
            _require_positive(name, getattr(self, name))
        _require_integer("n_paths", self.n_paths, 2)
        _require_integer("seed", self.seed, 0, 2**64)


@dataclass(frozen=True)
class SimOutput:
    curve: MomentCurve          # empirical E[u(t, 0)^2] with stderr
    mean: np.ndarray            # empirical E[u(t, 0)]
    mean_stderr: np.ndarray
    scheme: str                 # the scheme's name, echoed in the simulate sidecar


def _probe_steps(cfg: SimConfig, probes: Sequence[float]) -> list[int]:
    steps = []
    for t in probes:
        k = round(t / cfg.dt) if 0 < t < math.inf else 0
        if k < 1 or abs(k * cfg.dt - t) > 1e-9 * max(1.0, t):
            raise InvalidParams(f"probe time {t} is not a positive multiple of dt")
        if t > cfg.t_end + 1e-12:
            raise InvalidParams(f"probe time {t} beyond t_end={cfg.t_end}")
        steps.append(k)
    if len(set(steps)) != len(steps) or steps != sorted(steps):
        raise InvalidParams("probe times must be strictly increasing")
    return steps


def _probe_output(
    p: ModelParams, cfg: SimConfig, probes: Sequence[float], scheme: str,
    samples: list[np.ndarray],
) -> SimOutput:
    """Empirical E[u^2] and E[u] with their standard errors from the
    float64 probe values of every path, one array per probe time."""
    root_n = math.sqrt(cfg.n_paths)
    x = np.array(samples)  # (probe times, paths)
    sq = x * x
    err = np.std(sq, axis=1, ddof=1) / root_n
    curve = MomentCurve(
        np.asarray(probes, dtype=float), np.mean(sq, axis=1), "monte-carlo", p, stderr=err
    )
    return SimOutput(curve, np.mean(x, axis=1), np.std(x, axis=1, ddof=1) / root_n, scheme)


def _she_grid(p: ModelParams, cfg: SimConfig, probes: Sequence[float]):
    """Cell count and probe steps of the heat scheme."""
    if not (p.alpha == 2 and p.beta == 1 and p.gamma == 0 and p.dim == 1):
        raise InvalidParams("simulate_she requires alpha=2, beta=1, gamma=0, d=1")
    if abs(cfg.domain_half_width / cfg.dx - round(cfg.domain_half_width / cfg.dx)) > 1e-9:
        raise InvalidParams("domain_half_width must be a multiple of dx")
    if cfg.dt > cfg.dx**2 / (2.0 * p.nu) + 1e-15:
        raise StabilityViolated(
            f"explicit scheme needs dt <= dx^2/(2 nu) = {cfg.dx**2/(2*p.nu):.3e}"
        )
    return int(round(2.0 * cfg.domain_half_width / cfg.dx)) + 1, _probe_steps(cfg, probes)


# bit k of byte value v, as a (256, 8) table: turns the little-endian bytes of
# a row of Philox words into one entry per path, in path order
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
# 256-path blocks stepped together: at 512 paths the field and its scratch
# arrays stay in a core's L2 cache, which halves the time per path-step at
# 10 000 paths against stepping them all at once (2-core Xeon, 2 MiB L2)
_CHUNK_BLOCKS = 2


def _she_paths(
    p: ModelParams, cfg: SimConfig, m: int, jp: int, steps: list[int], block0: int, blocks: int
) -> np.ndarray:
    """The values in cell jp (probe times, paths) of the paths of 256-path
    blocks block0, ..., block0 + blocks - 1."""
    # single-precision field: scheme error O(dx) and sampling error O(1e-2)
    # both dwarf float32 roundoff; statistics are reduced in double.  Cell
    # major, so each stencil operand is one contiguous block
    u = np.full((m, 256 * blocks), p.u0, dtype=np.float32)
    coef = np.float32(p.nu * cfg.dt / (2.0 * cfg.dx**2))
    noise_std = np.float32(p.lam * math.sqrt(cfg.dt / cfg.dx))
    # interior * (+-noise_std) is (interior * xi) * noise_std bit for bit
    kicks = np.where(_BYTE_BITS, -noise_std, noise_std).astype(np.float32)
    interior = u[1:-1]
    words = np.empty((m - 2, blocks, 4), dtype="<u8")
    row_bytes = words.view(np.uint8).reshape(m - 2, 32 * blocks)
    bits = np.random.Philox(key=cfg.seed)
    fresh = bits.state
    counter = fresh["state"]["counter"]
    first_cell = 1 - int(round(cfg.domain_half_width / cfg.dx)) + 2**32
    want = set(steps)
    samples = []
    # the stencil's two scratch arrays; the operation order is that of
    # (u[2:] - 2 u[1:-1] + u[:-2]) and (u + coef lap + u xi noise_std)
    lap = np.empty_like(interior)
    kick = np.empty_like(interior)
    for n in range(steps[-1]):
        # one Philox stream per block runs over the interior cells; rewinding
        # one bit generator costs a fifth of making a new one
        for b in range(blocks):
            counter[:] = (first_cell, block0 + b, n, 1)
            bits.state = fresh
            words[:, b] = bits.random_raw(4 * (m - 2)).reshape(m - 2, 4)
        np.multiply(interior, 2.0, out=lap)
        np.subtract(u[2:], lap, out=lap)
        np.add(lap, u[:-2], out=lap)
        np.multiply(lap, coef, out=lap)
        np.add(interior, lap, out=lap)
        np.multiply(interior, kicks.take(row_bytes, axis=0).reshape(interior.shape), out=kick)
        np.add(lap, kick, out=interior)
        if (n + 1) in want:
            samples.append(u[jp].astype(np.float64))
    return np.array(samples)


def simulate_she(
    p: ModelParams,
    cfg: SimConfig,
    probes: Sequence[float],
) -> SimOutput:
    """Explicit finite differences for the multiplicative-noise heat case
    (alpha=2, beta=1, gamma=0, d=1):

        u_{n+1,j} = u_{n,j} + (nu dt / 2 dx^2) Lap u_{n,j}
                    + lambda u_{n,j} xi_{n,j} sqrt(dt/dx),

    with the boundary pinned at u0 on a truncated domain and the probe at
    x = 0, the centre cell.  The increments are Rademacher: the scheme is
    linear in u with noise independent of the past, so E[u_n] and
    E[u_n u_n^T] are those of Gaussian xi (see she_scheme_second_moment);
    higher moments are not.  For path i in
    absolute cell a (x = a dx) at step n, xi = -1 if bit i % 64 of
    w[(i // 64) % 4] is set and +1 otherwise, where

        w = Philox(key=seed, counter=(a + 2**32, i // 256, n, 1)).random_raw(4).

    So the first P paths of a larger run are those of a P-path run, and a
    wider domain shares the signs of the common cells.  The truncation's
    effect on the probe is deterministic: compare she_scheme_second_moment
    on the domain and on a wider one.
    """
    m, steps = _she_grid(p, cfg, probes)
    blocks = -(-cfg.n_paths // 256)
    chunks = [
        _she_paths(p, cfg, m, m // 2, steps, b, min(_CHUNK_BLOCKS, blocks - b))
        for b in range(0, blocks, _CHUNK_BLOCKS)
    ]
    samples = list(np.hstack(chunks)[:, : cfg.n_paths])
    return _probe_output(p, cfg, probes, "she-explicit-fd-rademacher", samples)


def she_scheme_second_moment(
    p: ModelParams,
    cfg: SimConfig,
    probes: Sequence[float],
) -> MomentCurve:
    """E[u_n(0)^2] of simulate_she's scheme in double-precision
    arithmetic, with no sampling error: the oracle for its Monte Carlo
    estimate, whatever the law of the increments (mean 0, variance 1,
    independent of the past).  cfg.n_paths and cfg.seed are not used.

    Write one step as u_{n+1} = B u_n + s D(xi_n) u_n, where B applies the
    stencil on the interior and keeps the two pinned boundary cells (the
    constant component), D(xi) is diagonal with xi on the interior and 0 on
    the boundary, and s = lambda sqrt(dt/dx).  Then M_n = E[u_n u_n^T] obeys

        M_{n+1} = B M_n B^T + s^2 diag(M_n on the interior),    M_0 = u0^2,

    and since B is tridiagonal a step costs O(m^2).  The gap to the closed
    form she_second_moment is the scheme's bias.
    """
    m, steps = _she_grid(p, cfg, probes)
    coef = p.nu * cfg.dt / (2.0 * cfg.dx**2)
    var = p.lam**2 * cfg.dt / cfg.dx
    mom = np.full((m, m), float(p.u0) ** 2)
    inner = np.arange(1, m - 1)
    want = set(steps)
    values = []
    for n in range(steps[-1]):
        kick = var * mom[inner, inner]
        # B M, then B (B M)^T = B M B^T, as M is symmetric
        for _ in range(2):
            mom[1:-1] = mom[1:-1] + coef * (mom[2:] - 2.0 * mom[1:-1] + mom[:-2])
            mom = mom.T
        mom[inner, inner] += kick
        if (n + 1) in want:
            values.append(mom[m // 2, m // 2])
    return MomentCurve(np.asarray(probes, dtype=float), np.array(values), "scheme-exact", p)


def _swe_noise(seed: int, cell_abs0: int, step: int, out: np.ndarray) -> None:
    """Fill row k of out with the noise of absolute cell cell_abs0 + k."""
    # one Philox counter block per (step, absolute cell); streams never
    # collide because draws only advance the low counter word.  One bit
    # generator is rewound to each cell's fresh state, which draws the same
    # bits as a new Philox(key=seed, counter=...) for a fifth of its set-up cost
    bits = np.random.Philox(key=seed)
    gen = np.random.Generator(bits)
    fresh = bits.state
    counter = fresh["state"]["counter"]
    for k, row in enumerate(out):
        counter[:] = (0, 0, step, cell_abs0 + k + 2**32)
        bits.state = fresh
        gen.standard_normal(out=row)


def simulate_swe(
    p: ModelParams,
    cfg: SimConfig,
    probes: Sequence[float],
) -> SimOutput:
    """Mild-form time stepping of the wave equation (alpha=beta=2, gamma=0,
    d=1), kernel (1/2 kappa) 1_{[-kappa t, kappa t]}, kappa = sqrt(nu/2), on the
    characteristic lattice kappa dt = dx (required): u_{n+1} = j0(t_{n+1}) +
    (lambda / 2 kappa) A_n, where A_n(j) sums v_i = u_i dW_i, i <= n, over the
    cells |k - j| < n+1-i and half-weights the two at |k - j| = n+1-i, so that

        A_n(j) = A_{n-1}(j-1) + A_{n-1}(j+1) - A_{n-2}(j) + v_n(j) + (v_n(j-1) + v_n(j+1))/2

    (discrete d'Alembert), A_{-1} = A_{-2} = 0, on the infinite lattice.
    Only the probe's backward light cone is stepped: with N the last probe
    step, u(t_N, 0) at the centre cell reads A_n within N - 1 - n cells of
    x = 0 and u_n, v_n and the noise within N - n, so step n draws and
    updates those cells alone, and reads none that step n - 1 did not
    write.  cfg.domain_half_width is not read."""
    if not (p.alpha == 2 and p.beta == 2 and p.gamma == 0 and p.dim == 1):
        raise InvalidParams("simulate_swe requires alpha=2, beta=2, gamma=0, d=1")
    kappa = math.sqrt(p.nu / 2.0)
    if abs(kappa * cfg.dt / cfg.dx - 1.0) > 1e-9:
        raise InvalidParams(
            "simulate_swe steps the characteristic lattice: needs "
            f"dt = dx/sqrt(nu/2) = {cfg.dx / kappa!r}"
        )
    steps = _probe_steps(cfg, probes)
    n_steps = steps[-1]
    noise_scale = math.sqrt(cfg.dt * cfg.dx)  # Var(dW over a cell) = dt dx
    coef = p.lam / (2.0 * kappa)

    # the cone's 2 N + 1 cells, centre at row N, cell major so that each
    # stencil operand is one contiguous block; v holds the noise, then u dW
    width = 2 * n_steps + 1
    u = np.full((width, cfg.n_paths), j0(p, 0.0))
    v = np.empty((width, cfg.n_paths))
    a_last, a_before = (np.zeros((width, cfg.n_paths)) for _ in range(2))
    pair = np.empty((width - 2, cfg.n_paths))
    want = set(steps)
    samples = []
    for n in range(n_steps):
        # v_n on the cells within N - n of the centre, A_n within N - 1 - n;
        # every update keeps the operation order of
        # a_l[j-1] + a_l[j+1] - a_b[j] + v[j] + 0.5 (v[j-1] + v[j+1])
        lo, hi = n, width - n
        # drawn on this thread: a cell's draw is short and mostly holds the
        # GIL, so worker threads would only contend with the step for it
        _swe_noise(cfg.seed, lo - n_steps, n, v[lo:hi])
        np.multiply(v[lo:hi], noise_scale, out=v[lo:hi])
        np.multiply(u[lo:hi], v[lo:hi], out=v[lo:hi])
        inner, left, right = slice(lo + 1, hi - 1), slice(lo, hi - 2), slice(lo + 2, hi)
        a, tmp = a_before[inner], pair[: hi - lo - 2]
        np.add(a_last[left], a_last[right], out=tmp)
        np.subtract(tmp, a, out=a)
        np.add(a, v[inner], out=a)
        np.add(v[left], v[right], out=tmp)
        np.multiply(tmp, 0.5, out=tmp)
        np.add(a, tmp, out=a)
        a_last, a_before = a_before, a_last
        np.multiply(a, coef, out=u[inner])
        np.add(u[inner], j0(p, (n + 1) * cfg.dt), out=u[inner])
        if (n + 1) in want:
            samples.append(u[n_steps].copy())
    return _probe_output(p, cfg, probes, "swe-mild-convolution", samples)
