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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch_bs import BsCouplings, bs_couplings, bs_map_blocks, bs_raw_coefficients
from .branch_tms import TmsCouplings, tms_couplings, tms_map_blocks, tms_raw_coefficients
from .errors import NumericalDegeneracy
from .params import PhysicalParams, ValidatedParams
from .regime import Branch
from .stage1 import Stage1Result, stage1_transform

SIGMA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

IMAG_TOL_DEFAULT = 1e-9
METRIC_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticForm:
    """Exact coefficient matrices of the photonic problem.

    h_matrix/h_offset represent the photonic Hamiltonian; coupling_matrix/
    coupling_offset represent the operator multiplying (b^dag + b), i.e. the
    bare -g0 a2^dag a2 before any transformation.
    """

    h_matrix: np.ndarray
    h_offset: float
    coupling_matrix: np.ndarray
    coupling_offset: float


@dataclass(frozen=True)
class LinearMap:
    """Bogoliubov or unitary transformation on (a1, a2, a1^dag, a2^dag)."""

    matrix: np.ndarray

    def symplectic_defect(self) -> float:
        T = self.matrix
        return float(np.max(np.abs(T @ SIGMA @ T.conj().T - SIGMA)))

    def then(self, other: "LinearMap") -> "LinearMap":
        """Composition: apply `self` first, then `other` (alpha = T1 T2 beta)."""
        return LinearMap(self.matrix @ other.matrix)


@dataclass(frozen=True)
class CoefficientSet:
    """Normal-ordered monomial coefficients of a conjugated quadratic operator.

    n11, n22, n12 multiply A1^dag A1, A2^dag A2, A1^dag A2; p11, p22, p12
    multiply A1^2, A2^2, A1 A2 (their Hermitian partners are implied); const
    is the scalar term.
    """

    n11: complex
    n22: complex
    n12: complex
    p11: complex
    p22: complex
    p12: complex
    const: complex

    def as_dict(self) -> dict[str, complex]:
        return {
            "n11": self.n11,
            "n22": self.n22,
            "n12": self.n12,
            "p11": self.p11,
            "p22": self.p22,
            "p12": self.p12,
            "const": self.const,
        }


@dataclass(frozen=True)
class SymplecticFrequencies:
    nu1: float  # larger positive normal-mode frequency
    nu2: float
    stable: bool


def bdg_matrix(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    return np.block([[P, Q], [Q.conj().T, P.T]])


def bogoliubov_map(U: np.ndarray, V: np.ndarray) -> LinearMap:
    """Map with rows a = U A + V A^dag (and the conjugate rows)."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    return LinearMap(np.block([[U, V], [V.conj(), U.conj()]]))


def build_photonic_form(p: PhysicalParams | ValidatedParams) -> QuadraticForm:
    """Exact quadratic form of the rotating-frame photonic Hamiltonian.

    H_ph = sum_j delta_j a_j^dag a_j
         + sum_j lambda_j (e^{-i phi_dj} a_j^dag^2 + h.c.)
         + j_hop (a1 a2^dag + a1^dag a2).

    Accepts raw parameters too: deliberately unstable forms are legitimate
    oracle inputs (the stability flag of `symplectic_frequencies` detects
    them).
    """
    P = np.array([[p.delta1, p.j_hop], [p.j_hop, p.delta2]], dtype=complex)
    # (1/2) a^dag Q a^dag with symmetric Q reproduces lambda e^{-i phi} a^dag^2
    # for Q_jj = 2 lambda_j e^{-i phi_dj}.
    Q = np.diag(
        [
            2.0 * p.lambda1 * np.exp(-1j * p.phi_d1),
            2.0 * p.lambda2 * np.exp(-1j * p.phi_d2),
        ]
    )
    M = bdg_matrix(P, Q)
    coupling_P = np.array([[0.0, 0.0], [0.0, -p.g0]], dtype=complex)
    K = bdg_matrix(coupling_P, np.zeros((2, 2)))
    # offsets chosen so the normal-ordered constant of each operator is 0
    return QuadraticForm(
        h_matrix=M,
        h_offset=-0.5 * float(np.trace(P).real),
        coupling_matrix=K,
        coupling_offset=-0.5 * float(np.trace(coupling_P).real),
    )


def stage1_map(p: ValidatedParams, s: Stage1Result) -> LinearMap:
    """Per-cavity squeezing: a_j = cosh(r_dj) a_sj - e^{-i phi_dj} sinh(r_dj) a_sj^dag."""
    U = np.diag([math.cosh(s.r_d1), math.cosh(s.r_d2)]).astype(complex)
    V = np.diag(
        [
            -np.exp(-1j * p.phi_d1) * math.sinh(s.r_d1),
            -np.exp(-1j * p.phi_d2) * math.sinh(s.r_d2),
        ]
    )
    return bogoliubov_map(U, V)


def tms_map(c: TmsCouplings) -> LinearMap:
    return bogoliubov_map(*tms_map_blocks(c))


def bs_map(c: BsCouplings) -> LinearMap:
    return bogoliubov_map(*bs_map_blocks(c))


def conjugate_form(
    matrix: np.ndarray, offset: float, T: LinearMap
) -> tuple[np.ndarray, float]:
    """Rewrite (M, offset) in the modes beta, alpha = T beta."""
    return T.matrix.conj().T @ matrix @ T.matrix, offset


def extract_coefficients(matrix: np.ndarray, offset: float) -> CoefficientSet:
    """Normal-ordered monomial coefficients of (1/2) alpha^dag M alpha + offset."""
    P = matrix[:2, :2]
    R = matrix[2:, :2]  # annihilation-pair block, R = conj(Q) for symmetric Q
    return CoefficientSet(
        n11=complex(P[0, 0]),
        n22=complex(P[1, 1]),
        n12=complex(P[0, 1]),
        p11=complex(0.5 * R[0, 0]),
        p22=complex(0.5 * R[1, 1]),
        p12=complex(0.5 * (R[0, 1] + R[1, 0])),
        const=complex(offset + 0.5 * np.trace(P)),
    )


def symplectic_frequencies(
    q: QuadraticForm, imag_tol: float = IMAG_TOL_DEFAULT
) -> SymplecticFrequencies:
    """Exact normal-mode frequencies from the dynamical matrix Sigma*M.

    Eigenvalues of Sigma*M come in +/- pairs for a dynamically stable form;
    a residual imaginary part beyond `imag_tol` marks parametric instability.

    Raises
    ------
    NumericalDegeneracy
        if the four eigenvalues cannot be grouped into two +/- pairs.
    """
    ev = np.linalg.eigvals(SIGMA @ q.h_matrix)
    scale = max(1.0, float(np.max(np.abs(ev))))
    # absolute floor, relaxed proportionally for very large frequency scales
    # where eigvals itself leaves larger imaginary rounding residue
    stable = bool(np.max(np.abs(ev.imag)) <= imag_tol * max(1.0, 1e-3 * scale))
    re = np.sort(ev.real)
    # sorted as [-nu1, -nu2, nu2, nu1] (allowing zero)
    pair_tol = 1e-6 * scale
    if abs(re[0] + re[3]) > pair_tol or abs(re[1] + re[2]) > pair_tol:
        raise NumericalDegeneracy(
            f"cannot pair eigenvalues {re.tolist()} within {pair_tol}"
        )
    return SymplecticFrequencies(nu1=float(re[3]), nu2=float(re[2]), stable=stable)


def _second_stage(
    p: ValidatedParams, branch: Branch, s: Stage1Result, caller: str
) -> tuple[TmsCouplings | BsCouplings, LinearMap, CoefficientSet]:
    """Couplings of a concrete branch, its rotation, and the closed-form
    coefficients they predict."""
    if branch is Branch.TWO_MODE_SQUEEZING:
        c = tms_couplings(s, p)
        return c, tms_map(c), CoefficientSet(**tms_raw_coefficients(s, c))
    if branch is Branch.BEAM_SPLITTER:
        c = bs_couplings(s, p)
        return c, bs_map(c), CoefficientSet(**bs_raw_coefficients(s, c))
    raise ValueError(f"{caller} needs a concrete branch (tms or bs)")


def _conjugated(form: QuadraticForm, T: LinearMap) -> CoefficientSet:
    return extract_coefficients(*conjugate_form(form.coupling_matrix, form.coupling_offset, T))


def conjugate_coupling(
    p: ValidatedParams, branch: Branch, s: Stage1Result | None = None
) -> CoefficientSet:
    """Exact coefficients of the coupling operator in the final frame.

    Composes the stage-1 squeezing with the requested second-stage rotation
    and conjugates the bare -g0 a2^dag a2 through the product, with no
    rotating-wave truncation anywhere. This is the independent check for the
    closed-form branch coefficients.
    """
    if branch is Branch.INTERMEDIATE:
        raise ValueError("conjugate_coupling needs a concrete branch (tms or bs)")
    if s is None:
        s = stage1_transform(p)
    _, T2, _ = _second_stage(p, branch, s, "conjugate_coupling")
    return _conjugated(build_photonic_form(p), stage1_map(p, s).then(T2))


def analytic_coefficients(
    p: ValidatedParams, branch: Branch, s: Stage1Result | None = None
) -> CoefficientSet:
    """Closed-form prediction for `conjugate_coupling`, same key scheme."""
    if s is None:
        s = stage1_transform(p)
    return _second_stage(p, branch, s, "analytic_coefficients")[2]


def coefficient_defect(
    a: CoefficientSet, b: CoefficientSet, scale_floor: float
) -> float:
    """Worst relative deviation between two coefficient sets.

    Each coefficient is compared relative to max(|a|, |b|, scale_floor); the
    floor (normally g0, the natural magnitude of every coupling) keeps a
    vanishing coefficient comparable without inflating the defect.
    """
    worst = 0.0
    da, db = a.as_dict(), b.as_dict()
    for key in da:
        denom = max(abs(da[key]), abs(db[key]), scale_floor)
        worst = max(worst, abs(da[key] - db[key]) / denom)
    return worst


@dataclass(frozen=True)
class FrequencyDeviation:
    analytic_abs: float
    exact: float
    rel_dev: float


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
    """

    branch: Branch
    dropped_name: str
    dropped_abs: float
    gap: float
    dropped_ratio: float
    freq_devs: tuple[FrequencyDeviation, ...]
    coeff_defect: float
    metric_defect: float
    freqs: SymplecticFrequencies

    @property
    def stable(self) -> bool:
        return self.freqs.stable


def rwa_error_report(
    p: ValidatedParams,
    branch: Branch,
    s: Stage1Result | None = None,
    form: QuadraticForm | None = None,
    freqs: SymplecticFrequencies | None = None,
) -> RwaErrorReport:
    """Quantify the rotating-wave truncation for the chosen branch.

    Builds the branch couplings and both rotations once. The photonic form
    of `p` and its symplectic frequencies are built here unless given (the
    reports of both branches of one point can share them).
    """
    if s is None:
        s = stage1_transform(p)
    if form is None:
        form = build_photonic_form(p)
    if freqs is None:
        freqs = symplectic_frequencies(form)
    T1 = stage1_map(p, s)
    c, T2, analytic = _second_stage(p, branch, s, "rwa_error_report")
    if branch is Branch.TWO_MODE_SQUEEZING:
        dropped_name = "coherent_hopping"
        dropped = p.j_hop * abs(s.lam1)
        gap = abs(s.omega_diff)
    else:
        dropped_name = "pair_squeezing"
        dropped = p.j_hop * abs(s.lam2)
        gap = abs(s.omega_sum)

    T = T1.then(T2)
    exact = _conjugated(form, T)
    defect = coefficient_defect(exact, analytic, scale_floor=max(p.g0, 1e-300))

    analytic_sorted = sorted(abs(x) for x in (c.w1, c.w2))
    exact_sorted = [freqs.nu2, freqs.nu1]
    devs = tuple(
        FrequencyDeviation(
            analytic_abs=a,
            exact=e,
            rel_dev=abs(a - e) / max(abs(e), 1e-300),
        )
        for a, e in zip(analytic_sorted, exact_sorted)
    )
    ratio = math.inf if gap == 0.0 else dropped / gap
    return RwaErrorReport(
        branch=branch,
        dropped_name=dropped_name,
        dropped_abs=dropped,
        gap=gap,
        dropped_ratio=ratio,
        freq_devs=devs,
        coeff_defect=defect,
        metric_defect=T.symplectic_defect(),
        freqs=freqs,
    )
