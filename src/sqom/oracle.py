"""Exact-diagonalization oracle for the photonic quadratic form.

Every analytic result in this package follows from two linear mode
transformations applied to a quadratic bosonic Hamiltonian. This module
redoes that computation without any closed-form shortcuts: it builds the
photonic Hamiltonian as an (N, 4, 4) stack in the doubled basis (a1, a2,
a1^dag, a2^dag) and diagonalizes it symplectically for the exact normal-mode
frequencies; `conjugate_coupling` conjugates the bare optomechanical coupling
through explicit transformation matrices, with no rotating-wave truncation.
Its coefficients, and the closed forms they are checked against, are the
rows of one `(7, N)` complex array, in the order of COEFFICIENTS.
`rwa_error_report` gives each branch's coefficient and metric defects as the
rows of two `(B, N)` arrays, with no form to solve; `frequency_deviation`
compares a branch's |W| with the exact frequencies.

Representation: an operator is stored as (M, offset) with

    O = (1/2) alpha^dag M alpha + offset,      alpha = (a1, a2, a1^dag, a2^dag),

where M = [[P, Q], [Q^dag, P^T]] is Hermitian with symmetric Q (particle-hole
block structure). The normal-ordered constant is offset + tr(P)/2. A mode
transformation alpha = T beta turns (M, offset) into (T^dag M T, offset); T
must preserve the bosonic metric Sigma = diag(1, 1, -1, -1) in the sense
T Sigma T^dag = Sigma.

Like the closed forms, every function takes the dataclasses of arrays, one
point per element, and works on (N, 4, 4) stacks, so one `eigvals` call
solves a batch; elementwise values follow the exactness rule of `elementwise`.
The oracle computes no pipeline stage: callers hand it the stages.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .elementwise import cabs, cis_neg, cos, cosh, py_max, rmul, sin, sinh
from .params import PhysicalParams
# stage1_transform, tms_couplings, bs_couplings: unused here, bound for perfbench/tracing.py
from .second_stage import BsCouplings, TmsCouplings, bs_couplings, tms_couplings  # noqa: F401
from .stage1 import Stage1Result, stage1_transform  # noqa: F401

SIGMA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

# the rows of a coefficient stack (`conjugate_coupling`, `coefficient_defect`)
COEFFICIENTS = ("n11", "n22", "n12", "p11", "p22", "p12", "const")

IMAG_TOL = 1e-9
METRIC_TOL = 1e-12


@dataclass(frozen=True)
class SymplecticFrequencies:
    nu1: np.ndarray  # larger positive normal-mode frequency
    nu2: np.ndarray
    stable: np.ndarray
    paired: np.ndarray  # False where nu1, nu2 and stable mean nothing


def _adjoint(T: np.ndarray) -> np.ndarray:
    return T.conj().swapaxes(-1, -2)


def symplectic_defect(T: np.ndarray) -> np.ndarray:
    """How far each map of a stack is from preserving the bosonic metric,
    max|T Sigma T^dag - Sigma|."""
    return abs(T @ SIGMA @ _adjoint(T) - SIGMA).max(axis=(-2, -1))


def _zeros(n: int) -> np.ndarray:
    return np.zeros((n, 2, 2), dtype=complex)


def _block(A, B, C, D) -> np.ndarray:
    """The stack of 4x4 matrices [[A, B], [C, D]] of stacks of 2x2 blocks."""
    M = np.empty((len(A), 4, 4), dtype=complex)
    M[:, :2, :2], M[:, :2, 2:], M[:, 2:, :2], M[:, 2:, 2:] = A, B, C, D
    return M


def _bdg(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    return _block(P, Q, _adjoint(Q), P.swapaxes(-1, -2))


def _bogoliubov(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Maps with rows a = U A + V A^dag (and the conjugate rows); complex U, V."""
    return _block(U, V, V.conj(), U.conj())


def build_photonic_form(p: PhysicalParams) -> np.ndarray:
    """Exact (N, 4, 4) Hamiltonian matrices of the rotating-frame photonic
    problem, one per point.

    H_ph = sum_j delta_j a_j^dag a_j
         + sum_j lambda_j (e^{-i phi_dj} a_j^dag^2 + h.c.)
         + j_hop (a1 a2^dag + a1^dag a2).

    Accepts unvalidated parameters too: deliberately unstable forms are legitimate
    oracle inputs (the stability flag of `symplectic_frequencies` detects
    them).
    """
    n = len(p.delta1)
    P, Q = _zeros(n), _zeros(n)
    P[:, 0, 0], P[:, 1, 1] = p.delta1, p.delta2
    P[:, 0, 1] = P[:, 1, 0] = p.j_hop
    # (1/2) a^dag Q a^dag with symmetric Q reproduces lambda e^{-i phi} a^dag^2
    # for Q_jj = 2 lambda_j e^{-i phi_dj}.
    Q[:, 0, 0], Q[:, 1, 1] = rmul((2.0 * p.lambda1, 2.0 * p.lambda2),
                                  (cis_neg(p.phi_d1), cis_neg(p.phi_d2)))
    return _bdg(P, Q)


def stage1_map(p: PhysicalParams, s: Stage1Result) -> np.ndarray:
    """Per-cavity squeezing: a_j = cosh(r_dj) a_sj - e^{-i phi_dj} sinh(r_dj) a_sj^dag."""
    U, V = _zeros(len(s.r_d1)), _zeros(len(s.r_d1))
    U[:, 0, 0], U[:, 1, 1] = cosh(s.r_d1), cosh(s.r_d2)
    V[:, 0, 0], V[:, 1, 1] = rmul((sinh(s.r_d1), sinh(s.r_d2)),
                                  (-cis_neg(p.phi_d1), -cis_neg(p.phi_d2)))
    return _bogoliubov(U, V)


def tms_map(c: TmsCouplings) -> np.ndarray:
    """Two-mode squeezing: a_s = U A + V A^dag with U = cosh(r), V off-diagonal."""
    U, V = _zeros(len(c.r)), _zeros(len(c.r))
    U[:, 0, 0] = U[:, 1, 1] = cosh(c.r)
    V[:, 0, 1] = V[:, 1, 0] = rmul(sinh(c.r), cis_neg(c.phi))
    return _bogoliubov(U, V)


def bs_map(c: BsCouplings) -> np.ndarray:
    """Beam-splitter mixing: a_s = U A with unitary U (V = 0)."""
    ch, sh = cos(0.5 * c.theta), sin(0.5 * c.theta)
    e = cis_neg(c.phi)
    U = _zeros(len(ch))
    U[:, 0, 0] = U[:, 1, 1] = ch
    U[:, 0, 1], U[:, 1, 0] = rmul((sh, -sh), (e, e.conj()))
    return _bogoliubov(U, _zeros(len(ch)))


def symplectic_frequencies(h: np.ndarray) -> SymplecticFrequencies:
    """Exact normal-mode frequencies of a form stack, from Sigma*M.

    Eigenvalues of Sigma*M come in +/- pairs for a dynamically stable form;
    a residual imaginary part beyond IMAG_TOL marks parametric instability.
    `paired` is False at a point whose four eigenvalues cannot be grouped
    into two +/- pairs (a `NumericalDegeneracy`); the other points of the
    batch are unaffected.
    """
    ev = np.linalg.eigvals(SIGMA @ h)
    scale = py_max(1.0, abs(ev).max(axis=-1))
    # absolute floor, relaxed proportionally for very large frequency scales
    # where eigvals itself leaves larger imaginary rounding residue
    stable = abs(ev.imag).max(axis=-1) <= IMAG_TOL * py_max(1.0, 1e-3 * scale)
    re = np.sort(ev.real, axis=-1)
    # sorted as [-nu1, -nu2, nu2, nu1] (allowing zero): -nu1 + nu1, -nu2 + nu2
    unpaired = (abs(re[:, :2] + re[:, :1:-1]) > (1e-6 * scale)[:, None]).any(axis=-1)
    return SymplecticFrequencies(nu1=re[:, 3], nu2=re[:, 2], stable=stable, paired=~unpaired)


def conjugate_coupling(p: PhysicalParams, T: np.ndarray) -> np.ndarray:
    """Exact coefficients of the bare coupling -g0 a2^dag a2 (the operator
    multiplying b^dag + b) in the modes beta, alpha = T beta, for a stack of
    maps T of shape (..., N, 4, 4): the independent check for the closed-form
    branch coefficients.

    Returns the `(7, ..., N)` rows of COEFFICIENTS: n11, n22, n12 multiply
    A1^dag A1, A2^dag A2, A1^dag A2; p11, p22, p12 multiply A1^2, A2^2, A1 A2
    (their Hermitian partners are implied); const is the scalar term.
    """
    n = len(p.g0)
    coupling_P = _zeros(n)
    coupling_P[:, 1, 1] = -p.g0
    # offset chosen so the normal-ordered constant of the bare coupling is 0
    offset = -0.5 * coupling_P.trace(axis1=1, axis2=2).real
    M = _adjoint(T) @ _bdg(coupling_P, _zeros(n)) @ T
    P = M[..., :2, :2]
    R = M[..., 2:, :2]  # annihilation-pair block, R = conj(Q) for symmetric Q
    return np.array((
        P[..., 0, 0], P[..., 1, 1], P[..., 0, 1],
        0.5 * R[..., 0, 0], 0.5 * R[..., 1, 1], 0.5 * (R[..., 0, 1] + R[..., 1, 0]),
        offset + 0.5 * P.trace(axis1=-2, axis2=-1),
    ))


def coefficient_defect(a: np.ndarray, b: np.ndarray, scale_floor) -> np.ndarray:
    """Worst relative deviation between two `(7, ..., N)` coefficient stacks
    (rows in COEFFICIENTS order), per point.

    Each coefficient is compared relative to max(|a|, |b|, scale_floor); the
    floor (normally g0, the natural magnitude of every coupling) keeps a
    vanishing coefficient comparable without inflating the defect. A NaN
    ratio (a NaN coefficient on either side) makes the point's defect NaN:
    it shows no agreement.
    """
    x, y = a.ravel(), b.ravel()
    denom = py_max(py_max(cabs(x), cabs(y)).reshape(a.shape), scale_floor)
    return (cabs(x - y).reshape(a.shape) / denom).max(axis=0, initial=0.0)


def rwa_error_report(
    p: PhysicalParams,
    s: Stage1Result,
    couplings: Sequence[TmsCouplings | BsCouplings],
) -> tuple[np.ndarray, np.ndarray]:
    """Check each branch in `couplings` (their type names the branch) against
    the oracle, all over the points of `p`, given the stage-1 result `s`.

    Returns `(coeff_defect, metric_defect)`, each of shape `(B, N)`, a row
    per couplings in order. coeff_defect is the worst relative deviation of
    `conjugate_coupling` from the closed forms (an exact identity, reported
    as a numerical sanity bound); metric_defect is how far the branch's
    composed map is from preserving the bosonic metric (`symplectic_defect`).
    The branches are one batch on a leading axis, through one stage-1 map,
    one conjugation and one metric defect.

    Two-mode squeezing moves -f_prime into the scalar part; the beam-splitter
    rotation is number conserving, so its scalar part stays -f_disp. Where
    the two-mode-squeezing stage is unstable the numbers mean nothing;
    callers mask those points.
    """

    def branch(c):  # map, n12 and scalar part
        if isinstance(c, TmsCouplings):
            return tms_map(c), -c.gp12, -(s.f_disp + c.f_prime)
        return bs_map(c), c.gp12, -s.f_disp

    maps, n12, const = zip(*map(branch, couplings))
    T = stage1_map(p, s) @ np.array(maps)  # (branch, N, 4, 4)
    analytic = np.empty((len(COEFFICIENTS), len(couplings), len(p.g0)), dtype=complex)
    for b, (c, n, k) in enumerate(zip(couplings, n12, const)):
        analytic[:, b] = (-c.g1, -c.g2, n, c.g11, c.g22, c.g12, k)
    defect = coefficient_defect(conjugate_coupling(p, T), analytic, py_max(p.g0, 1e-300))
    return defect, symplectic_defect(T)


def frequency_deviation(
    w1: np.ndarray, w2: np.ndarray, freqs: SymplecticFrequencies
) -> tuple[np.ndarray, np.ndarray]:
    """A branch's supermode frequencies |W| and their relative deviation
    from the exact frequencies `freqs`, each as `(2, N)` rows sorted by
    magnitude, the smaller frequency first."""
    w = abs(np.array((w1, w2)))
    # as sorted(), an unordered (NaN) pair keeps its order
    analytic = np.where(w[1] < w[0], w[::-1], w)
    exact = np.array((freqs.nu2, freqs.nu1))
    # like `div`: an overflowing ratio is IEEE's inf, without a warning
    with np.errstate(over="ignore"):
        return analytic, abs(analytic - exact) / py_max(abs(exact), 1e-300)
