"""Reference solutions computed apart from kinproj.

Nothing here imports kinproj: the exact Euler Riemann solver is the
textbook two-rarefaction/two-shock construction (Toro, ch. 4), and the
Carleman sum evaluates the discrete spectral collision operator Q_N by an
explicit scatter over all mode pairs, with its own DFT matrices, so that
neither shares code with the FFT realization under test.
"""

import math

import numpy as np


# ------------------------------------------------------------ Riemann solver

def _pressure_function(p, rho, pk, gamma):
    """Toro's f_K(p) and its derivative for one side of the fan."""
    a = math.sqrt(gamma * pk / rho)
    if p > pk:  # shock
        A = 2.0 / ((gamma + 1.0) * rho)
        B = (gamma - 1.0) / (gamma + 1.0) * pk
        q = math.sqrt(A / (p + B))
        return (p - pk) * q, q * (1.0 - 0.5 * (p - pk) / (p + B))
    ratio = p / pk  # rarefaction
    e = (gamma - 1.0) / (2.0 * gamma)
    f = 2.0 * a / (gamma - 1.0) * (ratio**e - 1.0)
    return f, ratio ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho * a)


def star_state(left, right, gamma):
    """(p*, u*) of the Riemann problem between (rho, u, p) states."""
    rl, ul, pl = left
    rr, ur, pr = right
    al = math.sqrt(gamma * pl / rl)
    ar = math.sqrt(gamma * pr / rr)
    if 2.0 * (al + ar) / (gamma - 1.0) <= ur - ul:
        raise ValueError("the Riemann data generate vacuum")
    # two-rarefaction guess, then Newton on f_L + f_R + du = 0
    e = (gamma - 1.0) / (2.0 * gamma)
    p = ((al + ar - 0.5 * (gamma - 1.0) * (ur - ul))
         / (al / pl**e + ar / pr**e)) ** (1.0 / e)
    for _ in range(100):
        fl, dl = _pressure_function(p, rl, pl, gamma)
        fr, dr = _pressure_function(p, rr, pr, gamma)
        step = (fl + fr + ur - ul) / (dl + dr)
        p_new = max(p - step, 1e-14 * p)
        if abs(p_new - p) <= 1e-15 * (p_new + p):
            p = p_new
            break
        p = p_new
    fl, _ = _pressure_function(p, rl, pl, gamma)
    fr, _ = _pressure_function(p, rr, pr, gamma)
    return p, 0.5 * (ul + ur) + 0.5 * (fr - fl)


def riemann_sample(left, right, gamma, xi):
    """Exact (rho, u, p) at similarity coordinates xi = (x - x0) / t."""
    xi = np.asarray(xi, dtype=float)
    ps, us = star_state(left, right, gamma)
    g1 = (gamma - 1.0) / (gamma + 1.0)
    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    p = np.empty_like(xi)
    for side, state, sign in (("L", left, -1.0), ("R", right, 1.0)):
        rk, uk, pk = state
        ak = math.sqrt(gamma * pk / rk)
        # sign = -1 mirrors the left wave onto the right-wave formulas
        mask = xi < us if side == "L" else xi >= us
        x = xi[mask]
        r = np.empty_like(x)
        v = np.empty_like(x)
        q = np.empty_like(x)
        if ps > pk:  # shock
            rs = rk * (ps / pk + g1) / (g1 * ps / pk + 1.0)
            speed = uk + sign * ak * math.sqrt(
                (gamma + 1.0) / (2.0 * gamma) * ps / pk + (gamma - 1.0) / (2.0 * gamma))
            outside = sign * (x - speed) > 0
            r[:] = rs
            v[:] = us
            q[:] = ps
        else:  # rarefaction
            rs = rk * (ps / pk) ** (1.0 / gamma)
            a_star = ak * (ps / pk) ** ((gamma - 1.0) / (2.0 * gamma))
            head = uk + sign * ak
            tail = us + sign * a_star
            outside = sign * (x - head) > 0
            inside = ~outside & (sign * (x - tail) > 0)
            r[:] = rs
            v[:] = us
            q[:] = ps
            xf = x[inside]
            c = 2.0 / (gamma + 1.0) + sign * g1 / ak * (xf - uk)
            r[inside] = rk * c ** (2.0 / (gamma - 1.0))
            v[inside] = 2.0 / (gamma + 1.0) * (-sign * ak + 0.5 * (gamma - 1.0) * uk + xf)
            q[inside] = pk * c ** (2.0 * gamma / (gamma - 1.0))
        r[outside] = rk
        v[outside] = uk
        q[outside] = pk
        rho[mask], u[mask], p[mask] = r, v, q
    return rho, u, p


# --------------------------------------------------- Carleman scatter sum

def _modes(n):
    """Integer mode of each DFT index: 0, 1, ..., n/2 - 1, -n/2, ..., -1."""
    q = np.arange(n)
    return np.where(q < n // 2, q, q - n)


def carleman_q(f, half_width, n_theta=4):
    """Q_N of one J x J slice by the O(J^4 N_theta) mode-pair scatter sum.

    Q_hat_k = sum_{l + m = k mod J} [B(l, m) - B(m, m)] F_l F_m with
    B(l, m) = (pi / N_theta) sum_p phi(l . e_p) phi(m . e_p'), where
    phi(s) = 2 R sin(R s) / (R s), R = pi * 2 / (3 + sqrt 2),
    e_p = (cos t_p, sin t_p), e_p' = (-sin t_p, cos t_p), t_p = pi p / N_theta,
    and F the DFT coefficients of the slice. The physical value carries
    2 b0 (V / pi)^2 with b0 = 1 / (2 pi).
    """
    f = np.asarray(f, dtype=float)
    n = f.shape[0]
    radius = math.pi * 2.0 / (3.0 + math.sqrt(2.0))
    idx = np.arange(n)
    dft = np.exp(-2j * math.pi * np.outer(idx, idx) / n)
    coef = dft @ f @ dft.T / (n * n)  # F[qx, qy]

    lx, ly = np.meshgrid(_modes(n), _modes(n), indexing="ij")

    def phi(s):
        out = np.full(s.shape, 2.0 * radius)
        nz = s != 0.0
        out[nz] = 2.0 * np.sin(radius * s[nz]) / s[nz]
        return out

    B = np.zeros((n, n, n, n))  # B[lx, ly, mx, my]
    for p in range(1, n_theta + 1):
        t = math.pi * p / n_theta
        a = phi(lx * math.cos(t) + ly * math.sin(t))
        b = phi(-lx * math.sin(t) + ly * math.cos(t))
        B += a[:, :, None, None] * b[None, None, :, :]
    B *= math.pi / n_theta
    diag = np.einsum("ijij->ij", B)  # B(m, m)

    qhat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            pair = (B[i, j] - diag) * coef[i, j] * coef
            # l = (i, j) shifts every m to k = l + m (mod n)
            qhat += np.roll(pair, (i, j), axis=(0, 1))
    values = (np.conj(dft) @ qhat @ np.conj(dft).T).real
    return 2.0 * (1.0 / (2.0 * math.pi)) * (half_width / math.pi) ** 2 * values


def discrete_maxwellian(f, half_width):
    """Maxwellian with the midpoint-quadrature (rho, u, T) of a 2D slice."""
    n = f.shape[0]
    dv = 2.0 * half_width / n
    v = -half_width + (np.arange(n) + 0.5) * dv
    vx, vy = np.meshgrid(v, v, indexing="ij")
    w = dv * dv
    rho = w * np.sum(f)
    ux = w * np.sum(vx * f) / rho
    uy = w * np.sum(vy * f) / rho
    T = (w * np.sum((vx * vx + vy * vy) * f) / rho - ux * ux - uy * uy) / 2.0
    return rho / (2.0 * math.pi * T) * np.exp(-((vx - ux) ** 2 + (vy - uy) ** 2) / (2.0 * T))
