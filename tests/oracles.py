"""Brute-force references used to cross-check the package's solvers.

Kept independent of the package internals: the worst-case oracle never
forms the secular equation, it climbs the sphere directly, the
falsification references form every probe vector explicitly, the
Monte Carlo reference scores one row at a time with its own draws, and
the choice-rule and grid-oracle references are the plain loops over
grid points and pairs of grid points.
"""

import math

import numpy as np

from specreg.param_choice import AlphaChoice
from specreg.regularize import (
    bias,
    propagation_norm,
    variance_trace,
    worst_case_error,
)
from specreg.spectral import DeterministicNoise, noise_generator


def reconstruction(method, alpha, data):
    """The regularized reconstruction q_alpha(lam) sqrt(lam) y of
    image-side data y, slot by slot."""
    lam = data.op.slot_eigenvalues
    return data.with_coefficients(method.q(alpha, lam) * np.sqrt(lam) * data.coefficients)


def worst_case_bounds(method, alpha, x, delta):
    """Cheap sandwich max(bias, ||R|| delta) <= worst case <= sum."""
    b = bias(method, alpha, x)
    p = propagation_norm(method, alpha, x.op) * delta
    return max(b, p), b + p


def brute_force_worst_case(
    b,
    d,
    delta,
    n_random=20000,
    n_starts=32,
    n_iter=400,
    seed=0,
):
    """max of ||-b + d * eta|| over ||eta|| <= delta by sampling + ascent.

    The objective is convex, so the maximum sits on the sphere.  Random
    unit directions give a global lower envelope; projected fixed-point
    ascent eta <- delta * normalize(d * (d * eta - b)) polishes the best
    candidates to stationarity (the KKT condition of the ball problem).
    """
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    n = b.size
    base = float(np.linalg.norm(b))
    if delta == 0.0 or not np.any(d != 0.0):
        return base
    rng = np.random.default_rng(seed)

    best = base
    best_eta = np.zeros(n)
    dirs = rng.standard_normal((n_random, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = np.linalg.norm(-b[None, :] + delta * dirs * d[None, :], axis=1)
    i = int(np.argmax(vals))
    if vals[i] > best:
        best = float(vals[i])
        best_eta = delta * dirs[i]

    starts = [best_eta]
    db = d * b
    if np.linalg.norm(db) > 0:
        starts.append(-delta * db / np.linalg.norm(db))
    top = np.zeros(n)
    top[int(np.argmax(d))] = delta
    starts += [top, -top]
    u = rng.standard_normal((n_starts, n))
    eta = np.vstack(starts + [delta * u / np.linalg.norm(u, axis=1, keepdims=True)])

    # all starts climb at once; a start leaves the live set when its
    # ascent direction vanishes or its step drops below 1e-16 * delta
    live = np.arange(len(eta))
    for _ in range(n_iter):
        v = d * (d * eta[live] - b)
        nv = np.linalg.norm(v, axis=1)
        moving = nv != 0.0
        live, new = live[moving], delta * v[moving] / nv[moving, None]
        step = np.linalg.norm(new - eta[live], axis=1)
        eta[live] = new
        live = live[step > 1e-16 * delta]
        if live.size == 0:
            break
    vals = np.linalg.norm(-b + d * eta, axis=1)
    return max(best, float(vals.max()))


def dense_vsc_residuals(coef, slot_lam, psi, probes):
    """VSC residuals of explicit probe rows for the exact solution ``coef``.

    Each row x of ``probes`` gets 2 <c, c - x> - 1/2 ||c - x||^2
    - psi(||T (c - x)||^2), from dense products over all slots.
    """
    p = probes - coef[None, :]  # h = c - x = -p
    inner = p @ coef
    norms_sq = np.einsum("ij,ij->i", p, p)
    image_sq = p**2 @ slot_lam
    return -2.0 * inner - 0.5 * norms_sq - psi(image_sq)


def dense_truncations(coef, slot_offsets, n):
    """Rows (I - E_lam) c for the first n levels: slots from the level's
    offset on are zeroed."""
    rows = np.repeat(np.asarray(coef, dtype=float)[None, :], n, axis=0)
    for row in range(n):
        rows[row, slot_offsets[row]:] = 0.0
    return rows


def dense_gaussians(coef, rng, radii):
    """Rows c + p: Gaussian directions drawn from rng as one
    (probes x slots) matrix, scaled to the norms ``radii``."""
    p = rng.standard_normal((len(radii), len(coef)))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    p *= radii[:, None]
    return coef[None, :] + p


def dense_spikes(coef, slots, values):
    """Rows c + v e_s, one per (slot s, value v)."""
    rows = np.repeat(np.asarray(coef, dtype=float)[None, :], len(slots), axis=0)
    rows[np.arange(len(slots)), slots] += values
    return rows


def dense_falsify_probes(coef, slot_offsets, n_probes, seed, scales):
    """The probes of the three falsification families as explicit matrices.

    One truncation per level (at most ``n_probes``); then, from
    ``default_rng(seed)``, Gaussian directions with norms cycled over
    ``scales * ||c||``, and spikes of the same norms with random slots
    and signs, a quarter of the remaining probes at most.  Returns a
    dict from family name to its (rows x slots) probe matrix.
    """
    coef = np.asarray(coef, dtype=float)
    n_trunc = min(len(slot_offsets), n_probes)
    out = {"truncation": dense_truncations(coef, slot_offsets, n_trunc)}
    norm_c = float(np.linalg.norm(coef))
    if norm_c == 0.0 or n_trunc >= n_probes:
        return out
    rng = np.random.default_rng(seed)
    remaining = n_probes - n_trunc
    n_spike = min(remaining // 4, 2 * coef.size * len(scales))
    n_gauss = remaining - n_spike
    radii = scales[np.arange(n_gauss) % len(scales)] * norm_c
    out["gaussian"] = dense_gaussians(coef, rng, radii)
    slots = rng.integers(0, coef.size, size=n_spike)
    signs = np.where(rng.integers(0, 2, size=n_spike) == 0, -1.0, 1.0)
    radii = scales[np.arange(n_spike) % len(scales)] * norm_c
    out["spike"] = dense_spikes(coef, slots, signs * radii)
    return out


def monte_carlo_one_row(method, alpha, x, noise, n_replicates):
    """One Monte Carlo row scored alone: per-replicate squared errors
    ||r x - eps q sqrt(lam) W_i||^2 with W_i drawn from
    noise_generator(noise, i), and their mean and standard error.

    Returns (err_sq, mean, se); the arithmetic is the single-row loop
    that scored every row before rows shared their draws.
    """
    lam = x.op.slot_eigenvalues
    residual = method.r(alpha, lam) * x.coefficients
    d = noise.epsilon * method.q(alpha, lam) * np.sqrt(lam)
    err_sq = np.empty(n_replicates)
    w = np.empty(x.op.n_slots)
    for i in range(n_replicates):
        noise_generator(noise, i).standard_normal(out=w)
        np.multiply(d, w, out=w)
        np.subtract(residual, w, out=w)
        err_sq[i] = float(w @ w)
    mean = float(np.mean(err_sq))
    se = float(np.std(err_sq, ddof=1) / math.sqrt(n_replicates))
    return err_sq, mean, se


def discrepancy_scan(method, data, delta, alphas, tau=2.0):
    """Discrepancy choice by a top-down scan of slot norms: the largest
    grid alpha with ||r_alpha(lam) y|| <= tau * delta over all slots,
    flagged at the smallest alpha when none qualifies."""
    a = np.asarray(alphas, dtype=float)
    lam = data.op.slot_eigenvalues
    y = data.coefficients
    threshold = tau * delta
    for i in range(a.size - 1, -1, -1):
        res = float(np.linalg.norm(method.r(a[i], lam) * y))
        if res <= threshold:
            return AlphaChoice(float(a[i]), i)
    return AlphaChoice(float(a[0]), 0, "no_alpha_met_discrepancy")


def lepskii_pairwise(method, data, noise, alphas, constant=4.0):
    """Lepskii choice by the double loop over pairs: candidate i passes
    when sqrt(sum over levels of (q_i - q_j)^2 lam m) <= constant * s_j
    for every j < i, with m the level masses of the data and s the noise
    propagation scale; the scan stops at the first failing candidate."""
    a = np.asarray(alphas, dtype=float)
    lam_level = data.op.eigenvalues
    weights = lam_level * data.level_mass
    if isinstance(noise, DeterministicNoise):
        base = noise.delta * np.sqrt(method.c_q / a)
    else:
        base = noise.epsilon * np.sqrt(variance_trace(method, a, data.op))
    scale = constant * base
    if not np.all(scale > 0):
        return AlphaChoice(float(a[0]), 0, "degenerate_noise_scale")
    q_rows = [method.q(a[0], lam_level)]
    best = 0
    for i in range(1, a.size):
        q_i = method.q(a[i], lam_level)
        ok = True
        for j in range(i):
            diff_sq = float(np.sum((q_i - q_rows[j]) ** 2 * weights))
            if math.sqrt(diff_sq) > scale[j]:
                ok = False
                break
        if not ok:
            break
        q_rows.append(q_i)
        best = i
    return AlphaChoice(float(a[best]), best)


def grid_inf_error_loop(method, x, noise, alphas):
    """Deterministic grid oracle by the plain loop: the sandwich
    max(bias, ||R|| delta) <= worst case <= bias + ||R|| delta prunes the
    grid, then one ``worst_case_error`` per survivor, the first survivor
    of least value winning.  Returns (AlphaChoice, value)."""
    a = np.asarray(alphas, dtype=float)
    delta = noise.delta
    bias_arr = bias(method, a, x)
    prop_arr = propagation_norm(method, a, x.op)
    lb = np.maximum(bias_arr, prop_arr * delta)
    cutoff = float(np.min(bias_arr + prop_arr * delta))
    best_i, best_v = -1, math.inf
    for i in np.nonzero(lb <= cutoff)[0]:
        v = worst_case_error(method, float(a[i]), x, delta).value
        if v < best_v:
            best_i, best_v = int(i), v
    return AlphaChoice(float(a[best_i]), best_i), best_v
