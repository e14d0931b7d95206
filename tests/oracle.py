"""Dense-matrix oracle used by the tests.

Builds explicit operators by Kronecker products on small configs and
computes every expectation by matrix algebra.  Deliberately independent of
the matrix-free code paths it checks.

Also holds the scalar RK4 in t of the mean-field model (``rk4_model``): one
Python step per substep and piece, against which the RK4 in tau of
``pnes.meanfield``, and so its ``tau_of_t``, is checked.
"""

import math

import numpy as np


def lowering(d):
    m = np.zeros((d, d))
    for n in range(1, d):
        m[n - 1, n] = np.sqrt(n)
    return m


def mode_op(op, mode, shape):
    """Embed a single-mode operator into the three-mode product space."""
    d0, d1, d2 = shape
    eyes = [np.eye(d0), np.eye(d1), np.eye(d2)]
    eyes[mode] = op
    return np.kron(np.kron(eyes[0], eyes[1]), eyes[2])


def dense_ops(shape):
    """Dictionary of all dense operators the observables use."""
    a0 = mode_op(lowering(shape[0]), 0, shape)
    a1 = mode_op(lowering(shape[1]), 1, shape)
    a2 = mode_op(lowering(shape[2]), 2, shape)
    n0, n1, n2 = (a.T @ a for a in (a0, a1, a2))
    A = a1 @ a2
    ops = {
        "a0": a0, "a1": a1, "a2": a2,
        "n0": n0, "n1": n1, "n2": n2,
        "A": A, "Adag": A.T,
        "N": n1 + n2,
        "C_plus": A + A.T,
        "C_minus": (A - A.T) / 1j,
        "Q": a0 + a0.T,
        "K": n0 + 0.5 * (n1 + n2),
    }
    return ops


def dense_generator(shape, chi):
    ops = dense_ops(shape)
    return chi * (ops["Adag"] @ ops["a0"] - ops["A"] @ ops["a0"].T)


def expect(op, psi):
    return complex(np.vdot(psi, op @ psi))


def dispersion(op, psi):
    return (expect(op @ op, psi) - expect(op, psi) ** 2).real


def _rk4_piece(a_fn, chi, t0, t1, lam, n, n_sub):
    h = (t1 - t0) / n_sub
    t = t0

    def rhs(t, lam, n):
        a = a_fn(t)
        return chi * (n + 1.0) * a, 4.0 * chi * lam * a

    for i in range(n_sub):
        # the last substep ends exactly at t1, never past a sampled pump's support
        t_end = t1 if i == n_sub - 1 else t + h
        k1l, k1n = rhs(t, lam, n)
        k2l, k2n = rhs(t + 0.5 * h, lam + 0.5 * h * k1l, n + 0.5 * h * k1n)
        k3l, k3n = rhs(t + 0.5 * h, lam + 0.5 * h * k2l, n + 0.5 * h * k2n)
        k4l, k4n = rhs(t_end, lam + h * k3l, n + h * k3n)
        lam += h / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        n += h / 6.0 * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
        t = t_end
    return lam, n


def rk4_model(p, chi, t_grid, n_sub):
    """(Lambda, N) on t_grid from (0, 0) by scalar RK4 in t, n_sub substeps per piece.

    It reads a(t) itself, not tau, so it checks ``tau_of_t`` too."""
    lam, n = 0.0, 0.0
    out_l = [lam]
    out_n = [n]
    piecewise_const = p.variant in ("constant", "rectangular")
    # where a(t) or its slope jumps: a sampled pump's samples, a rectangle's ends
    breaks = p.times if p.variant == "sampled" else () if p.variant == "gaussian" else (0.0, p.T)
    for i in range(len(t_grid) - 1):
        t0, t1 = float(t_grid[i]), float(t_grid[i + 1])
        # split at the profile's kinks and jumps so every rk4 step sees a smooth rhs
        edges = [t0] + [b for b in breaks if t0 < b < t1] + [t1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if p.variant == "gaussian":  # its own formula, in Python floats
                def a_fn(t, a=p.a, c=p.t_center, w=p.width):
                    z = (t - c) / w
                    return a * math.exp(-0.5 * z * z)
            elif piecewise_const or hi <= p.times[0]:
                # a rectangle's level, or the zero before the first sample (not the jump at its end)
                a_fn = lambda t, a=p.amplitude(0.5 * (lo + hi)): a
            else:  # sampled: linear on the piece, between its ends
                a_lo, a_hi = p.amplitude(lo), p.amplitude(hi)
                a_fn = lambda t, a=a_lo, s=(a_hi - a_lo) / (hi - lo), lo=lo: a + (t - lo) * s
            lam, n = _rk4_piece(a_fn, chi, lo, hi, lam, n, n_sub)
        out_l.append(lam)
        out_n.append(n)
    return np.asarray(out_l), np.asarray(out_n)
