"""Exact-diagonalization oracle for the photonic quadratic form.

Every analytic result in this package follows from two linear mode
transformations applied to a quadratic bosonic Hamiltonian. This module
redoes that computation without any closed-form shortcuts: it builds the
exact coefficient matrix of the photonic Hamiltonian in the doubled basis
(a1, a2, a1^dag, a2^dag), diagonalizes it symplectically for the exact
normal-mode frequencies, and conjugates the bare optomechanical coupling
operator through the explicit transformation matrices, extracting every
induced coefficient with no rotating-wave truncation.

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch_bs import BsCouplings, bs_couplings
from .branch_tms import TmsCouplings, tms_couplings
from .elementwise import cabs, cis_neg, cos, cosh, div, py_max, rmul, sin, sinh
from .errors import NumericalDegeneracy
from .params import PhysicalParams, ValidatedParams
from .regime import Branch
from .stage1 import Stage1Result, stage1_transform

SIGMA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

IMAG_TOL = 1e-9
METRIC_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticForm:
    """Exact coefficient matrices of the photonic problem, one per point.

    h_matrix represents the photonic Hamiltonian; coupling_matrix/
    coupling_offset represent the operator multiplying (b^dag + b), i.e. the
    bare -g0 a2^dag a2 before any transformation.
    """

    h_matrix: np.ndarray
    coupling_matrix: np.ndarray
    coupling_offset: np.ndarray


@dataclass(frozen=True)
class SymplecticFrequencies:
    nu1: np.ndarray  # larger positive normal-mode frequency
    nu2: np.ndarray
    stable: np.ndarray


def _adjoint(T: np.ndarray) -> np.ndarray:
    return T.conj().swapaxes(-1, -2)


def symplectic_defect(T: np.ndarray) -> np.ndarray:
    """How far each map of a stack is from preserving the bosonic metric,
    max|T Sigma T^dag - Sigma|."""
    return np.max(np.abs(T @ SIGMA @ _adjoint(T) - SIGMA), axis=(-2, -1))


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


def build_photonic_form(p: PhysicalParams | ValidatedParams) -> QuadraticForm:
    """Exact quadratic form of the rotating-frame photonic Hamiltonian.

    H_ph = sum_j delta_j a_j^dag a_j
         + sum_j lambda_j (e^{-i phi_dj} a_j^dag^2 + h.c.)
         + j_hop (a1 a2^dag + a1^dag a2).

    Accepts raw parameters too: deliberately unstable forms are legitimate
    oracle inputs (the stability flag of `symplectic_frequencies` detects
    them).
    """
    n = len(p.delta1)
    P, Q, coupling_P = _zeros(n), _zeros(n), _zeros(n)
    P[:, 0, 0], P[:, 1, 1] = p.delta1, p.delta2
    P[:, 0, 1] = P[:, 1, 0] = p.j_hop
    # (1/2) a^dag Q a^dag with symmetric Q reproduces lambda e^{-i phi} a^dag^2
    # for Q_jj = 2 lambda_j e^{-i phi_dj}.
    Q[:, 0, 0] = rmul(2.0 * p.lambda1, np.exp(-1j * p.phi_d1))
    Q[:, 1, 1] = rmul(2.0 * p.lambda2, np.exp(-1j * p.phi_d2))
    coupling_P[:, 1, 1] = -p.g0
    # offset chosen so the normal-ordered constant of the coupling is 0
    return QuadraticForm(
        h_matrix=_bdg(P, Q),
        coupling_matrix=_bdg(coupling_P, _zeros(n)),
        coupling_offset=-0.5 * np.trace(coupling_P, axis1=1, axis2=2).real,
    )


def stage1_map(p: ValidatedParams, s: Stage1Result) -> np.ndarray:
    """Per-cavity squeezing: a_j = cosh(r_dj) a_sj - e^{-i phi_dj} sinh(r_dj) a_sj^dag."""
    U, V = _zeros(len(s.r_d1)), _zeros(len(s.r_d1))
    U[:, 0, 0], U[:, 1, 1] = cosh(s.r_d1), cosh(s.r_d2)
    V[:, 0, 0] = rmul(sinh(s.r_d1), -np.exp(-1j * p.phi_d1))
    V[:, 1, 1] = rmul(sinh(s.r_d2), -np.exp(-1j * p.phi_d2))
    return _bogoliubov(U, V)


def tms_map(c: TmsCouplings) -> np.ndarray:
    """Two-mode squeezing: a_s = U A + V A^dag with U = cosh(r), V off-diagonal."""
    U, V = _zeros(len(c.r)), _zeros(len(c.r))
    U[:, 0, 0] = U[:, 1, 1] = cosh(c.r)
    V[:, 0, 1] = V[:, 1, 0] = rmul(sinh(c.r), cis_neg(c.phi_big))
    return _bogoliubov(U, V)


def bs_map(c: BsCouplings) -> np.ndarray:
    """Beam-splitter mixing: a_s = U A with unitary U (V = 0)."""
    ch, sh = cos(0.5 * c.theta), sin(0.5 * c.theta)
    e = cis_neg(c.phi_big)
    U = _zeros(len(ch))
    U[:, 0, 0] = U[:, 1, 1] = ch
    U[:, 0, 1], U[:, 1, 0] = rmul(sh, e), rmul(-sh, e.conj())
    return _bogoliubov(U, _zeros(len(ch)))


def symplectic_frequencies(q: QuadraticForm) -> SymplecticFrequencies:
    """Exact normal-mode frequencies from the dynamical matrix Sigma*M.

    Eigenvalues of Sigma*M come in +/- pairs for a dynamically stable form;
    a residual imaginary part beyond IMAG_TOL marks parametric instability.

    Raises
    ------
    NumericalDegeneracy
        if the four eigenvalues of a point cannot be grouped into two +/-
        pairs (the first such point is named).
    """
    ev = np.linalg.eigvals(SIGMA @ q.h_matrix)
    scale = py_max(1.0, np.max(np.abs(ev), axis=-1))
    # absolute floor, relaxed proportionally for very large frequency scales
    # where eigvals itself leaves larger imaginary rounding residue
    stable = np.max(np.abs(ev.imag), axis=-1) <= IMAG_TOL * py_max(1.0, 1e-3 * scale)
    re = np.sort(ev.real, axis=-1)
    # sorted as [-nu1, -nu2, nu2, nu1] (allowing zero)
    pair_tol = 1e-6 * scale
    unpaired = (abs(re[:, 0] + re[:, 3]) > pair_tol) | (abs(re[:, 1] + re[:, 2]) > pair_tol)
    if unpaired.any():
        i = np.argmax(unpaired)
        raise NumericalDegeneracy(
            f"cannot pair eigenvalues {re[i].tolist()} within {pair_tol.item(i)}"
        )
    return SymplecticFrequencies(nu1=re[:, 3], nu2=re[:, 2], stable=stable)


def _conjugated(form: QuadraticForm, T: np.ndarray) -> dict[str, np.ndarray]:
    """Normal-ordered monomial coefficients of the coupling operator in the
    modes beta, alpha = T beta.

    n11, n22, n12 multiply A1^dag A1, A2^dag A2, A1^dag A2; p11, p22, p12
    multiply A1^2, A2^2, A1 A2 (their Hermitian partners are implied); const
    is the scalar term.
    """
    M = _adjoint(T) @ form.coupling_matrix @ T
    P = M[:, :2, :2]
    R = M[:, 2:, :2]  # annihilation-pair block, R = conj(Q) for symmetric Q
    return {
        "n11": P[:, 0, 0],
        "n22": P[:, 1, 1],
        "n12": P[:, 0, 1],
        "p11": 0.5 * R[:, 0, 0],
        "p22": 0.5 * R[:, 1, 1],
        "p12": 0.5 * (R[:, 0, 1] + R[:, 1, 0]),
        "const": form.coupling_offset + 0.5 * np.trace(P, axis1=1, axis2=2),
    }


def _closed_form(
    c: TmsCouplings | BsCouplings, n12: np.ndarray, const: np.ndarray
) -> dict[str, np.ndarray]:
    """The branch couplings under the keys of `_conjugated`."""
    return {
        "n11": (-c.g1).astype(complex),
        "n22": (-c.g2).astype(complex),
        "n12": n12,
        "p11": c.g11,
        "p22": c.g22,
        "p12": c.g12,
        "const": const.astype(complex),
    }


def _second_stage(
    p: ValidatedParams, branch: Branch, s: Stage1Result, c=None
) -> tuple[TmsCouplings | BsCouplings, np.ndarray, dict[str, np.ndarray]]:
    """Couplings of a concrete branch (computed unless given), its rotation,
    and the closed-form coefficients they predict.

    Two-mode squeezing moves -f_prime into the scalar part; the beam-splitter
    rotation is number conserving, so its scalar part stays -f_disp.
    """
    if branch is Branch.TWO_MODE_SQUEEZING:
        c = tms_couplings(s, p) if c is None else c
        return c, tms_map(c), _closed_form(c, -c.gp12, -(s.f_disp + c.f_prime))
    if branch is Branch.BEAM_SPLITTER:
        c = bs_couplings(s, p) if c is None else c
        return c, bs_map(c), _closed_form(c, c.gp12, -s.f_disp)
    raise ValueError("the oracle needs a concrete branch (tms or bs)")


def conjugate_coupling(
    p: ValidatedParams, branch: Branch, s: Stage1Result | None = None
) -> dict[str, np.ndarray]:
    """Exact coefficients of the coupling operator in the final frame.

    Composes the stage-1 squeezing with the requested second-stage rotation
    and conjugates the bare -g0 a2^dag a2 through the product, with no
    rotating-wave truncation anywhere. This is the independent check for the
    closed-form branch coefficients.
    """
    if s is None:
        s = stage1_transform(p)
    T2 = _second_stage(p, branch, s)[1]
    return _conjugated(build_photonic_form(p), stage1_map(p, s) @ T2)


def analytic_coefficients(
    p: ValidatedParams, branch: Branch, s: Stage1Result | None = None
) -> dict[str, np.ndarray]:
    """Closed-form prediction for `conjugate_coupling`, same keys."""
    if s is None:
        s = stage1_transform(p)
    return _second_stage(p, branch, s)[2]


def coefficient_defect(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray], scale_floor
) -> np.ndarray:
    """Worst relative deviation between two coefficient sets, per point.

    Each coefficient is compared relative to max(|a|, |b|, scale_floor); the
    floor (normally g0, the natural magnitude of every coupling) keeps a
    vanishing coefficient comparable without inflating the defect.
    """
    worst = 0.0
    for key in a:
        denom = py_max(py_max(cabs(a[key]), cabs(b[key])), scale_floor)
        worst = py_max(worst, cabs(a[key] - b[key]) / denom)
    return worst


@dataclass(frozen=True)
class FrequencyDeviation:
    analytic_abs: np.ndarray
    exact: np.ndarray
    rel_dev: np.ndarray


@dataclass(frozen=True)
class RwaErrorReport:
    """What the analytic branch dropped, and what that truncation cost.

    dropped_abs is the magnitude of the discarded photonic term's coupling
    (j_hop*|lam1| coherent hopping for the two-mode-squeezing branch,
    j_hop*|lam2| pair term for the beam-splitter branch); gap is the
    rotating-frame frequency it beats at. freq_devs compares the branch's
    supermode frequencies with the exact symplectic ones, sorted by
    magnitude. coeff_defect is the worst relative deviation of the
    conjugation oracle from the closed forms (an exact identity, reported as
    a numerical sanity bound). freqs are the exact symplectic frequencies.
    Each number is an array over the points.
    """

    branch: Branch
    dropped_name: str
    dropped_abs: np.ndarray
    gap: np.ndarray
    dropped_ratio: np.ndarray
    freq_devs: tuple[FrequencyDeviation, ...]
    coeff_defect: np.ndarray
    metric_defect: np.ndarray
    freqs: SymplecticFrequencies

    @property
    def stable(self) -> np.ndarray:
        return self.freqs.stable


def rwa_error_report(
    p: ValidatedParams,
    branch: Branch,
    s: Stage1Result | None = None,
    c: TmsCouplings | BsCouplings | None = None,
    form: QuadraticForm | None = None,
    freqs: SymplecticFrequencies | None = None,
) -> RwaErrorReport:
    """Quantify the rotating-wave truncation for the chosen branch.

    The stage-1 result, the branch couplings, the photonic form of `p` and
    its symplectic frequencies are computed here unless given (the reports of
    both branches of a batch can share the form and its frequencies). Where
    the two-mode-squeezing stage is unstable the numbers mean nothing; callers
    mask those points.
    """
    if s is None:
        s = stage1_transform(p)
    if form is None:
        form = build_photonic_form(p)
    if freqs is None:
        freqs = symplectic_frequencies(form)
    c, T2, analytic = _second_stage(p, branch, s, c)
    if branch is Branch.TWO_MODE_SQUEEZING:
        dropped_name = "coherent_hopping"
        dropped = p.j_hop * cabs(s.lam1)
        gap = abs(s.omega_diff)
    else:
        dropped_name = "pair_squeezing"
        dropped = p.j_hop * cabs(s.lam2)
        gap = abs(s.omega_sum)

    T = stage1_map(p, s) @ T2
    exact = _conjugated(form, T)
    defect = coefficient_defect(exact, analytic, scale_floor=py_max(p.g0, 1e-300))

    # sorted by magnitude; as sorted(), an unordered (NaN) pair keeps its order
    w1, w2 = abs(c.w1), abs(c.w2)
    swap = w2 < w1
    analytic_sorted = (np.where(swap, w2, w1), np.where(swap, w1, w2))
    exact_sorted = (freqs.nu2, freqs.nu1)
    devs = tuple(
        FrequencyDeviation(
            analytic_abs=a,
            exact=e,
            rel_dev=abs(a - e) / py_max(abs(e), 1e-300),
        )
        for a, e in zip(analytic_sorted, exact_sorted)
    )
    return RwaErrorReport(
        branch=branch,
        dropped_name=dropped_name,
        dropped_abs=dropped,
        gap=gap,
        dropped_ratio=div(dropped, gap, gap == 0.0, math.inf),
        freq_devs=devs,
        coeff_defect=defect,
        metric_defect=symplectic_defect(T),
        freqs=freqs,
    )
