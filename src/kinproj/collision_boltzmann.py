"""Fast spectral Boltzmann collision operator, 2D pseudo-Maxwellian particles.

The velocity box [-V, V]^2 is mapped to [-pi, pi]^2, the distribution slice is
periodized there, and the Carleman-form bilinear quadrature

    Q_hat_k = sum_{l+m=k} beta(l,m) f_hat_l f_hat_m,
    beta(l,m) = B(l,m) - B(m,m),
    B(l,m)    = (pi/N_theta) sum_p alpha_p(l) alpha'_p(m),
    alpha_p(l)  = phi(l . e_{theta_p}),   alpha'_p(m) = phi(m . e_{theta_p + pi/2}),
    phi(s)      = 2 R sinc(R s),          theta_p = pi p / N_theta,

with p = 0 .. N_theta - 1 and N_theta even. As phi is even, the quarter turn
of angle p is angle p + N_theta/2: alpha'_p = alpha_{p + N_theta/2}, indices
mod N_theta. So the plan keeps one table per angle and takes each pair
(p, p + N_theta/2), p < N_theta/2, once with twice the weight, 2 pi/N_theta;
B(m,m) comes from the same pairs. The sum is realized with unpadded discrete
Fourier transforms (the convolution is mod-N per axis): one forward
transform per slice, and one inverse per table and for B(m,m). Support
truncation radius R = lambda*pi with lambda = 2/(3+sqrt(2)). Physical output
carries the constant-kernel prefactor 2*b0 and the box Jacobian (V/pi)^2;
with b0 = 1/(2 pi) the untruncated loss term is exactly rho*f.

The kernel runs in real arithmetic on half spectra. A slice is real, so its
spectrum G is Hermitian and the bins k_y = 0..N/2 hold all of it. The
forward transform takes each real row to N/2+1 interleaved (re, im) bins
with one real N x (N+2) matrix, then runs the complex pass along x over
those N/2+1 half rows only. An inverse is the complex pass over the half
rows followed by one real (N+2) x N matrix back to real rows. Each pass is
one matrix product of a whole block of slices, so a slice costs
O(N_theta N^3): at J = 16 and N_theta = 4, 101k real multiply-adds per Q_N
in the products (83k in the transforms, 18k in the Nyquist term below),
against 188k for complex passes over the full spectrum. At
J = 16 and 32 the transforms run in half the time numpy's FFT takes on the
same half spectra, and in about the same time at J = 64.

This is the real part of the complex quadrature, exact to roundoff, not an
approximation of it. A table t enters through its even part
t_e(k) = (t(k) + t(-k))/2; its product with a Hermitian spectrum has a real
inverse, Re IFFT2(t G). The odd part t - t_e vanishes except on the Nyquist
row and column, where -k wraps onto the line itself. There it is O(1/N) of
the table for angles off the axes, and its inverse is purely imaginary:
i (s_a r(b) + s_b c(a)) with s = (-1)^index and r, c one-dimensional. The
gain keeps Re(X_i X_j) = Re X_i Re X_j - Im X_i Im X_j whole, with the
second product formed from r and c (dropping it would cost 0.4% of |Q| at
J = 16). The loss f * IFFT2(B(m,m) G) needs only the real part, as f is
real. The plan derives which tables and pairs carry the odd term from the
tables themselves, so any even N_theta stays exact.

``boltzmann_q`` is this raw operator Q_N. On a coarse velocity grid Q_N does
not vanish at sampled Maxwellians (|Q_N(M)| = 3.6e-4 at J = 16, V = 8,
rho = 0.565, T = 0.57), so every cell relaxes toward a spurious equilibrium
with negative tails, which a weakly unstable aliasing mode then amplifies.
``boltzmann_rhs`` therefore uses the steady-state-preserving form of
Filbet, Pareschi and Rey (2015), Q_N(f) - Q_N(M_N[f]), with M_N[f] the local
Maxwellian rebuilt from the discrete moments of f. The subtracted term is
itself a value of Q_N, so conservation holds to the same accuracy as for
Q_N, and its size is the annihilation residual of Q_N: spectrally small on
resolved grids (6.9e-12 at J = 32, rho = T = 1).
"""

import math

import numpy as np

from .errors import ConfigurationError
from .phase_space import local_maxwellian, moments

LAMBDA = 2.0 / (3.0 + math.sqrt(2.0))
DEFAULT_B0 = 1.0 / (2.0 * math.pi)


def phi_profile(radius, s):
    """phi(s) = 2 R sinc(R s) (sinc in the unnormalized sin(x)/x sense)."""
    return 2.0 * radius * np.sinc(radius * np.asarray(s) / np.pi)


def _real_form(w):
    """Real (2K, 2M) matrix that acts on rows of interleaved (re, im) pairs as
    complex (K, M) w acts on complex rows: row 2j is the image of a real unit
    at j, row 2j+1 that of an imaginary unit."""
    return np.stack([w, 1j * w], axis=1).view(float).reshape(2 * w.shape[0], -1)


def _same_to_roundoff(u, v):
    """Whether a multiplier table u and its mirror v, v(k) = u(-k), differ
    only by the rounding of cos and sin, by at most 1e-13 of u's largest
    value; a table with an odd part differs from its mirror by O(1/N) of it
    on the Nyquist lines."""
    return np.abs(u - v).max() <= 1e-13 * np.abs(u).max()


class SpectralPlan:
    """Precomputed angular factor tables for an even number N_theta of angles
    on a velocity grid, which must be square and 2D with an even J >= 8 nodes
    per axis."""

    def __init__(self, vgrid, n_theta=4):
        modes = vgrid.counts[0]
        if vgrid.counts != (modes, modes):
            raise ConfigurationError(
                "the spectral collision operator needs a square 2D velocity grid")
        if modes % 2 != 0 or modes < 8:
            raise ConfigurationError(f"modes must be even and >= 8, got {modes}")
        if not (n_theta >= 2 and n_theta % 2 == 0):
            raise ConfigurationError(
                f"n_theta must be a whole number, even and >= 2, got {n_theta}")
        self.modes = modes
        self.half_width = vgrid.half_width
        self.n_theta = n_theta = int(n_theta)
        self.radius = LAMBDA * np.pi
        # physical scaling: 2^(dv-1) b0 kernel constant x (V/pi)^2 box Jacobian
        self.scale = 2.0 * DEFAULT_B0 * (self.half_width / np.pi) ** 2

        freq = np.fft.fftfreq(self.modes, 1.0 / self.modes)  # integer modes, FFT order
        theta = np.pi * np.arange(n_theta)[:, None, None] / n_theta
        # one table per angle, tables[p] = alpha_p, and each quarter-turn pair
        # once with twice the weight (see the module docstring)
        self.tables = phi_profile(
            self.radius, freq[:, None] * np.cos(theta) + freq[None, :] * np.sin(theta))
        half = n_theta // 2
        self.pairs = [(p, p + half) for p in range(half)]
        self.weight_theta = 2.0 * np.pi / n_theta
        # Fourier multiplier of the loss convolution: B(m,m), from the same pairs
        self.bhat_diag = self.weight_theta * (self.tables[:half] * self.tables[half:]).sum(0)
        # Half spectra (see the module docstring): bins k_y = 0..N/2, all k_x.
        # Even parts t_e(k) = (t(k) + t(-k))/2 of every table and of B(m,m),
        # in the kernel's (k_y, k_x) layout with each entry repeated for its
        # (re, im) pair; the odd parts feed the Nyquist term.
        n, h = self.modes, self.modes // 2 + 1
        multipliers = np.concatenate([self.tables, [self.bhat_diag]])
        flipped = np.roll(multipliers[:, ::-1, ::-1], 1, axis=(1, 2))  # t(-k)
        even = 0.5 * (multipliers + flipped)
        odd = 0.5 * (multipliers - flipped)
        self.half_multipliers = np.repeat(even[:, :, :h].transpose(0, 2, 1), 2, axis=-1)
        k = np.arange(n)
        w = np.exp(2j * np.pi * (np.outer(k, k) % n) / n)  # inverse DFT kernel
        # real rows -> bins 0..N/2, N x (N+2); complex passes, 2N x 2N
        self.r2c = _real_form(w[:, :h].conj())[0::2]
        self.cdft = _real_form(w.conj())
        self.cidft = _real_form(w / n)
        # Hermitian bins 0..N/2 -> real rows with numpy's 1/N, (N+2) x N;
        # the imaginary parts of bins 0 and N/2 are dropped
        weight = np.full(h, 2.0 / n)
        weight[[0, -1]] = 1.0 / n
        self.c2r = _real_form(weight[:, None] * w[:h])[:, 0::2]
        self.c2r[[1, -1]] = 0.0
        # Nyquist term. For a table with odd part o, Im IFFT2(t G)(a, b) is
        # s_a r(b) + s_b c(a), s = (-1)^index, with r and c the inverse
        # transforms of o G along the Nyquist row (k_x = N/2) and column
        # (k_y = N/2); o G is anti-Hermitian along each line, so bins 0..N/2
        # fix it. The signs cancel in the product of two such parts,
        # (r~_i(b) + c~_i(a)) (r~_j(b) + c~_j(a)) with r~ = s r, c~ = s c,
        # which the gain subtracts for every pair of two odd tables.
        is_odd = [not _same_to_roundoff(t, u) for t, u in zip(self.tables, flipped)]
        odd_pairs = [(i, j) for i, j in self.pairs if is_odd[i] and is_odd[j]]
        odd_tables = sorted({t for pair in odd_pairs for t in pair})
        position = {t: q for q, t in enumerate(odd_tables)}
        self.odd_pairs = [(position[i], position[j]) for i, j in odd_pairs]
        # o on the [row, column] bins 0..N/2, each repeated for (re, im)
        lines = [odd[odd_tables, n // 2, :h], odd[odd_tables, :h, n // 2]]
        self.odd_lines = np.repeat(np.concatenate(lines, axis=1), 2, axis=-1)
        # [row, column] bins -> r~(b) + c~(a) on the flattened (a, b) grid,
        # 4(N/2+1) x N^2
        line = _real_form((2.0 / n**2) * w[:h] * (-1.0) ** k)[:, 1::2]
        self.nyquist = np.concatenate([np.tile(line, n), np.repeat(line, n, axis=1)])


def _check_slice(plan, slices):
    n = plan.modes
    if slices.shape[-2:] != (n, n):
        raise ConfigurationError(
            f"slice shape {slices.shape[-2:]} does not match plan modes {n}"
        )


# Slices per kernel block: 8,192 velocity nodes (32 slices at J = 16) keep the
# block's half spectra (72 KiB per multiplier) in cache while giving each
# matrix product enough rows. Q_N on 1,024 cells at J = 16, median of 7 on a
# 2-core x86-64 VM with OpenBLAS, two sweeps: 2,048 nodes 19-20 ms, 4,096
# 14-16 ms, 8,192 14-15 ms, 16,384 16-17 ms, 32,768 17-18 ms. The same
# transforms through numpy's pocketfft (rfft2/irfft2 over 8,192-node blocks)
# take 2.3x as long at J = 16 and 2.0x at J = 32, and 0.9-1.1x at J = 64.
# The BLAS computes each row of a product alike whatever the number of rows,
# given at least two (``test_batch_matches_loop`` checks it), so the block
# size does not change a single bit of the result.
_BLOCK_NODES = 8192


def _rows(x, matrix):
    """x @ matrix over the last axis of x, all leading axes as rows."""
    return (x.reshape(-1, x.shape[-1]) @ matrix).reshape(x.shape[:-1] + (-1,))


def _swap(x):
    """Interleaved complex (..., P, 2Q) -> (..., Q, 2P), the two axes swapped."""
    z = x.view(complex)
    return np.ascontiguousarray(np.swapaxes(z, -1, -2)).view(float)


def _q_block(plan, block):
    """Unit-box collision values (unscaled) of a real (B, N, N) block."""
    n, h = plan.modes, plan.modes // 2 + 1
    # half spectrum G in the (k_y, k_x) layout, interleaved (re, im)
    G = _rows(_swap(_rows(block, plan.r2c)), plan.cdft)
    # every table's even part and the loss multiplier, transformed back at
    # once: the x passes, the axes swapped, the real y passes
    X = _rows(_swap(_rows(plan.half_multipliers[:, None] * G, plan.cidft)), plan.c2r)
    gain = np.zeros_like(block)
    for i, j in plan.pairs:
        gain += X[i] * X[j]
    if plan.odd_pairs:
        # Nyquist row (k_x = N/2) and column (k_y = N/2), bins 0..N/2; a pair
        # joins two tables, so the product has at least two rows even for
        # one slice (a one-row product takes the BLAS's matrix-vector path,
        # which rounds differently)
        lines = np.concatenate([G[:, :, n : n + 2].reshape(-1, 2 * h), G[:, -1, : 2 * h]], 1)
        part = _rows(plan.odd_lines[:, None] * lines, plan.nyquist).reshape(-1, *block.shape)
        for i, j in plan.odd_pairs:
            gain -= part[i] * part[j]
    gain *= plan.weight_theta
    gain -= block * X[-1]
    return gain


def _q(plan, slices, eq=None):
    """Unit-box collision values (unscaled) for real (..., N, N) slices,
    less those of eq (slices of the same shape) when given, block by block."""
    n = plan.modes
    out = np.empty(slices.shape)
    flat, flat_out = slices.reshape(-1, n, n), out.reshape(-1, n, n)
    step = max(1, _BLOCK_NODES // (n * n))
    for i in range(0, flat.shape[0], step):
        idx = slice(i, i + step)
        q = _q_block(plan, flat[idx])
        if eq is not None:
            q -= _q_block(plan, eq.reshape(-1, n, n)[idx])
        flat_out[idx] = q
    return out


def boltzmann_q(plan, slice_values):
    """Physical collision operator values on one (or a batch of) J x J slice(s)."""
    slices = np.asarray(slice_values, dtype=float)
    _check_slice(plan, slices)
    return plan.scale * _q(plan, slices)


def boltzmann_rhs(field, plan, epsilon):
    """(1/epsilon) * [Q_N(f) - Q_N(M_N[f])] per spatial cell, batched over cells.

    M_N[f] is the local Maxwellian rebuilt from the discrete moments of f
    (see ``local_maxwellian``). At a sampled Maxwellian the result is only
    as large as the gap between f and its own moment rebuild (9.6e-7 against
    3.6e-4 for the raw operator on the J = 16 desk grid). The subtraction
    removes the spurious forcing toward a non-Maxwellian equilibrium, and
    with it the seed of the aliasing mode; it does not make Q_N dissipative.
    """
    vg = field.vgrid
    if vg.counts != (plan.modes, plan.modes) or vg.half_width != plan.half_width:
        raise ConfigurationError(
            f"velocity grid {vg.counts} of half-width {vg.half_width} does not match "
            f"the plan's ({plan.modes}, {plan.modes}) of half-width {plan.half_width}")
    if not 0 < epsilon < np.inf:
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon}")
    f = field.values
    eq = local_maxwellian(vg, moments(vg, f))
    out = _q(plan, f, eq)
    out *= plan.scale / epsilon
    return out
