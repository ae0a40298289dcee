"""Fast spectral Boltzmann collision operator, 2D pseudo-Maxwellian particles.

The velocity box [-V, V]^2 is mapped to [-pi, pi]^2, the distribution slice is
periodized there, and the Carleman-form bilinear quadrature

    Q_hat_k = sum_{l+m=k} beta(l,m) f_hat_l f_hat_m,
    beta(l,m) = B(l,m) - B(m,m),
    B(l,m)    = (pi/N_theta) sum_p alpha_p(l) alpha'_p(m),
    alpha_p(l)  = phi(l . e_{theta_p}),   alpha'_p(m) = phi(m . e_{theta_p + pi/2}),
    phi(s)      = 2 R sinc(R s),          theta_p = pi p / N_theta,

is realized with unpadded discrete Fourier transforms (the convolution is
mod-N per axis), one per distinct angular table plus two per slice. Each 1D
pass of a transform is one real matrix product of the whole block's rows with
a dense 2N x 2N DFT matrix acting on the interleaved (re, im) view, so a slice
costs O(N_theta N^3). At the grid sizes the scenarios use (J = 16, 32) that is
faster than numpy's FFT, whose per-transform overhead dominates for short
transforms; at J = 64 it is slower. Support truncation radius R = lambda*pi
with lambda = 2/(3+sqrt(2)). Physical output carries the constant-kernel
prefactor 2*b0 and the box Jacobian (V/pi)^2; with b0 = 1/(2 pi) the
untruncated loss term is exactly rho*f.

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


def _interleaved(w):
    """Real (2N, 2N) matrix of right-multiplication by complex (N, N) w on
    rows stored as interleaved (re, im) pairs."""
    n = w.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = w.real
    out[0::2, 1::2] = w.imag
    out[1::2, 0::2] = -w.imag
    out[1::2, 1::2] = w.real
    return out


class SpectralPlan:
    """Precomputed angular factor tables for one (J, V, N_theta, b0) choice."""

    def __init__(self, modes, half_width, n_theta=4, b0=DEFAULT_B0):
        if modes % 2 != 0 or modes < 8:
            raise ConfigurationError(f"modes must be even and >= 8, got {modes}")
        if n_theta < 1:
            raise ConfigurationError(f"n_theta must be >= 1, got {n_theta}")
        if not (half_width > 0 and b0 > 0):
            raise ConfigurationError("half_width and b0 must be positive")
        self.modes = int(modes)
        self.half_width = float(half_width)
        self.n_theta = int(n_theta)
        self.b0 = float(b0)
        self.lam = LAMBDA
        self.radius = LAMBDA * np.pi
        # physical scaling: 2^(dv-1) b0 kernel constant x (V/pi)^2 box Jacobian
        self.scale = 2.0 * b0 * (half_width / np.pi) ** 2

        freq = np.fft.fftfreq(self.modes, 1.0 / self.modes)  # integer modes, FFT order
        lx = freq[:, None]
        ly = freq[None, :]
        thetas = np.pi * np.arange(1, n_theta + 1) / n_theta
        self.alpha = np.empty((n_theta, self.modes, self.modes))
        self.alpha_prime = np.empty_like(self.alpha)
        for p, th in enumerate(thetas):
            self.alpha[p] = phi_profile(self.radius, lx * np.cos(th) + ly * np.sin(th))
            self.alpha_prime[p] = phi_profile(
                self.radius, -lx * np.sin(th) + ly * np.cos(th)
            )
        self.weight_theta = np.pi / n_theta
        # Distinct multiplier tables, each transformed once per evaluation:
        # the quarter turn maps some alpha' tables onto alpha tables bit for
        # bit (for n_theta = 4, alpha'_1 = alpha_3 and alpha'_3 = alpha_1).
        # pairs[p] indexes the (alpha_p, alpha'_p) tables of angle p.
        tables = []

        def table_index(t):
            for i, u in enumerate(tables):
                if np.array_equal(u, t):
                    return i
            tables.append(t)
            return len(tables) - 1

        self.pairs = [
            (table_index(self.alpha[p]), table_index(self.alpha_prime[p]))
            for p in range(n_theta)
        ]
        self.tables = np.stack(tables)
        # Fourier multiplier of the loss convolution: B(m,m)
        self.bhat_diag = self.weight_theta * np.sum(
            self.alpha * self.alpha_prime, axis=0
        )
        # DFT matrices for the kernel. A complex row z times a complex
        # matrix W is the real row [Re z_0, Im z_0, Re z_1, ...] times the
        # real 2N x 2N matrix _interleaved(W); a real row needs only the
        # even rows of it. The inverse carries numpy's 1/N per axis.
        k = np.arange(self.modes)
        w = np.exp(-2j * np.pi * (np.outer(k, k) % self.modes) / self.modes)
        self.dft = _interleaved(w)
        self.dft_real = self.dft[0::2].copy()
        self.idft = _interleaved(w.conj() / self.modes)
        # The kernel holds spectra transposed, (k_y, k_x), with each entry
        # repeated for its (re, im) pair; the multipliers follow that layout.
        self.table_multipliers = np.repeat(self.tables.transpose(0, 2, 1), 2, axis=-1)
        self.loss_multiplier = np.repeat(self.bhat_diag.T, 2, axis=-1)


def _check_slice(plan, slices):
    n = plan.modes
    if slices.shape[-2:] != (n, n):
        raise ConfigurationError(
            f"slice shape {slices.shape[-2:]} does not match plan modes {n}"
        )


# Slices per kernel block: 8,192 velocity nodes (32 slices at J = 16) keep the
# block's interleaved spectra (128 KiB each) in cache while giving each DFT
# matrix product enough rows. Q_N on 1,024 cells at J = 16, median of 7 on a
# 2-core x86-64 VM with OpenBLAS: 2,048 nodes 45 ms, 4,096 35 ms, 8,192 32 ms,
# 16,384 44 ms, 32,768 45 ms (pocketfft passes over 8,192-node blocks: 60 ms).
# The BLAS computes each row of a product alike whatever the number of rows
# (``test_batch_matches_loop`` checks it), so the block size does not change a
# single bit of the result.
_BLOCK_NODES = 8192


def _dft_rows(x, matrix):
    """One 1D DFT pass along the last axis of real (B, N, M) x, as a single
    matrix product of all B*N rows; complex (B, N, N) result."""
    b, n, m = x.shape
    return (x.reshape(b * n, m) @ matrix).view(complex).reshape(b, n, n)


def _dft2(x, first, second):
    """2D DFT of real (B, N, M) x: a pass with ``first`` along the last axis,
    one transpose copy, a pass with ``second`` along the other axis. The
    complex (B, N, N) result comes out with its two axes swapped."""
    half = np.ascontiguousarray(_dft_rows(x, first).transpose(0, 2, 1))
    return _dft_rows(half.view(float), second)


def _gain_loss_block(plan, slices):
    """Unit-box (gain, loss) convolutions (complex, unscaled) of a (B, N, N) block."""
    # spectrum in the (k_y, k_x) layout, interleaved (re, im); the inverse
    # transforms swap the axes back to (x, y)
    G = _dft2(slices, plan.dft_real, plan.dft).view(float)
    X = [_dft2(t * G, plan.idft, plan.idft) for t in plan.table_multipliers]
    gain = np.zeros_like(X[0])
    for i, j in plan.pairs:
        gain += X[i] * X[j]
    gain *= plan.weight_theta
    loss = slices * _dft2(plan.loss_multiplier * G, plan.idft, plan.idft)
    return gain, loss


def _blocks(plan, slices):
    """Yield (block index slice, block) pairs over the flattened leading axes."""
    n = plan.modes
    flat = slices.reshape(-1, n, n)
    step = max(1, _BLOCK_NODES // (n * n))
    for i in range(0, flat.shape[0], step):
        yield slice(i, i + step), flat[i : i + step]


def _q_complex(plan, slices):
    """Unit-box collision values (complex, unscaled) for (..., N, N) slices."""
    out = np.empty(slices.shape, dtype=complex)
    flat_out = out.reshape(-1, plan.modes, plan.modes)
    for idx, block in _blocks(plan, slices):
        gain, loss = _gain_loss_block(plan, block)
        flat_out[idx] = gain - loss
    return out


def boltzmann_q(plan, slice_values):
    """Physical collision operator values on one (or a batch of) J x J slice(s)."""
    slices = np.asarray(slice_values, dtype=float)
    _check_slice(plan, slices)
    return plan.scale * _q_complex(plan, slices).real


def boltzmann_gain_loss(plan, slice_values):
    """Physically scaled (gain, loss) convolution split, for diagnostics."""
    slices = np.asarray(slice_values, dtype=float)
    _check_slice(plan, slices)
    gain = np.empty(slices.shape)
    loss = np.empty(slices.shape)
    flat_gain = gain.reshape(-1, plan.modes, plan.modes)
    flat_loss = loss.reshape(-1, plan.modes, plan.modes)
    for idx, block in _blocks(plan, slices):
        g, l = _gain_loss_block(plan, block)
        flat_gain[idx] = plan.scale * g.real
        flat_loss[idx] = plan.scale * l.real
    return gain, loss


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
    if vg.dv != 2:
        raise ConfigurationError("spectral collision operator requires dv = 2")
    if vg.counts != (plan.modes, plan.modes):
        raise ConfigurationError(
            f"velocity counts {vg.counts} do not match plan modes {plan.modes}"
        )
    if not np.isclose(vg.half_width, plan.half_width):
        raise ConfigurationError(
            f"velocity half-width {vg.half_width} does not match plan {plan.half_width}"
        )
    if not epsilon > 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    f = field.values
    eq = local_maxwellian(vg, moments(vg, f))
    return (plan.scale / epsilon) * (_q_complex(plan, f) - _q_complex(plan, eq)).real
