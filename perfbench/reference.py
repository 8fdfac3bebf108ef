"""Reference computations made apart from so2mra, and the checks that use them.

Everything here works from the observation model itself: an image ``x`` with
angular indices ``k``, a rotation density with Fourier coefficients
``rho[k]`` (``E exp(-1j*k*phi) = 2*pi*rho[k]``) and conjugate-symmetric noise
of variance ``sigma^2`` per coefficient.  Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
POPULATION_RTOL = 1e-12
EXACT_RECOVERY_TOL = 1e-9
CIRCULANT_RTOL = 1e-10
# Simulated moments must lie within this many standard errors of the model's
# moments, entry by entry (~1800 complex entries at B=10, Q=2).
SIMULATION_Z = 6.0


def closed_form_moments(coeffs, k_index, rho_coeffs, sigma):
    """``M1 = 2*pi*x*rho[k]`` and ``M2 = 2*pi*(x x^H)∘T + sigma^2 I``, entry by entry.

    ``rho_coeffs`` runs over ``k = -2B..2B``; ``T[i, j] = rho[k_i - k_j]``.
    """
    off = (len(rho_coeffs) - 1) // 2
    d = len(coeffs)
    m1 = np.empty(d, dtype=complex)
    m2 = np.empty((d, d), dtype=complex)
    for i in range(d):
        m1[i] = TWO_PI * coeffs[i] * rho_coeffs[off + k_index[i]]
        for j in range(d):
            m2[i, j] = TWO_PI * coeffs[i] * np.conj(coeffs[j]) * rho_coeffs[off + k_index[i] - k_index[j]]
        m2[i, i] += sigma**2
    return m1, m2


def _relative_gap(a, b) -> float:
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def check_population_moments(m1, m2, ref_m1, ref_m2) -> list[str]:
    gap = max(_relative_gap(m1, ref_m1), _relative_gap(m2, ref_m2))
    if gap > POPULATION_RTOL:
        return [f"population moments differ from the closed form by {gap:.3g} relative"]
    return []


def standard_error_bounds(coeffs, ref_m1, sigma, n):
    """Upper bounds on the standard errors of n-sample moment averages.

    A rotation only changes phases, so ``|y_j|`` is distributed as
    ``|x_j + noise|``.  Then ``Var y_j <= |x_j|^2 + sigma^2 - |M1_j|^2`` and
    ``Var(y_i conj y_j) <= E|y_i|^2|y_j|^2 <= sqrt(E|y_i|^4 E|y_j|^4)`` with
    ``E|y|^4 <= |x|^4 + 6|x|^2 sigma^2 + 3 sigma^4`` (the real-noise k=0 case
    is the larger one).
    """
    a2 = np.abs(coeffs) ** 2
    var1 = np.maximum(a2 + sigma**2 - np.abs(ref_m1) ** 2, 0.0)
    fourth = a2**2 + 6.0 * a2 * sigma**2 + 3.0 * sigma**4
    var2 = np.sqrt(np.outer(fourth, fourth))
    return np.sqrt(var1 / n), np.sqrt(var2 / n)


def check_simulated_moments(m1, m2, ref_m1, ref_m2, se1, se2) -> list[str]:
    z1 = np.abs(m1 - ref_m1) / np.maximum(se1, 1e-300)
    z2 = np.abs(m2 - ref_m2) / np.maximum(se2, 1e-300)
    worst = float(max(z1.max(), z2.max()))
    if worst > SIMULATION_Z:
        return [f"simulated moments lie {worst:.1f} standard errors from the model (limit {SIMULATION_Z})"]
    return []


def check_exact_recovery(variant: str, error: float) -> list[str]:
    if not error < EXACT_RECOVERY_TOL:
        return [f"fm_recover_2d ({variant}) error {error:.3g} on exact moments, limit {EXACT_RECOVERY_TOL}"]
    return []


def nearest_circulant(rho_coeffs):
    """Toeplitz ``T[i, j] = rho[i - j]`` (``i, j = -B..B``) and the circulant that
    averages each wrapped diagonal of it, which is the Frobenius-nearest one."""
    off = (len(rho_coeffs) - 1) // 2
    n = off + 1  # 2B+1
    t = np.array([[rho_coeffs[off + i - j] for j in range(n)] for i in range(n)])
    first_col = np.array(
        [np.mean([t[i, j] for i in range(n) for j in range(n) if (i - j) % n == m]) for m in range(n)]
    )
    c = np.array([[first_col[(i - j) % n] for j in range(n)] for i in range(n)])
    return t, c


def check_circulant(v_opt, s_b, rho_coeffs) -> list[str]:
    t, c = nearest_circulant(rho_coeffs)
    problems = []
    ref_s_b = float(np.sum(np.abs(t - c) ** 2))
    if abs(s_b - ref_s_b) > CIRCULANT_RTOL * max(ref_s_b, 1e-300):
        problems.append(f"circulant_project s_b {s_b:.6g} != ||T - C||_F^2 {ref_s_b:.6g}")
    if _relative_gap(np.asarray(v_opt), c[:, 0]) > CIRCULANT_RTOL:
        problems.append("circulant_project v_opt is not the diagonal-averaged circulant")
    return problems


def check_bound(unrotated, minimised, scaled_error) -> list[str]:
    """The minimum over rotations includes rotation 0, and dominates the error.

    ``unrotated``/``minimised`` are (bound or None, applicable) pairs;
    ``scaled_error`` is the spectral recovery's absolute squared error.
    """
    problems = []
    if unrotated[0] is not None and (minimised[0] is None or minimised[0] > unrotated[0]):
        problems.append(f"bound minimised over rotations {minimised[0]} exceeds the unrotated {unrotated[0]}")
    for name, (bound, applicable) in (("unrotated", unrotated), ("minimised", minimised)):
        if applicable and bound is not None and scaled_error > bound:
            problems.append(f"{name} bound {bound:.3g} below the spectral error {scaled_error:.3g}")
    return problems
