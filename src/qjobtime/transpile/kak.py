"""Two-qubit unitary factorization into single-qubit gates and three CX.

Any U in U(4) factors as

    U = phase * (A1 (x) A0) . exp(i(x XX + y YY + z ZZ)) . (B1 (x) B0)

which is computed in the magic (Bell) basis: local unitaries become real
orthogonal matrices there, and the interaction content becomes a diagonal of
phases. The interaction part is then emitted through a fixed three-CX circuit
identity that reproduces exp(i(x XX + y YY + z ZZ)) exactly, including phase:

    CX . (Rx(-2x) (x) Rz(-2z)H) . CX . (Rx(2y)S (x) HS) . CX . (I (x) Sdg)

(the dressing layout of Vatan & Williams, PRA 69, 032315, 2004).
Single-qubit factors are lowered to RZ/SX strings via ZYZ Euler angles.

`kak_decompose` is two passes. The interaction pass (`kak_interaction`)
finds (x, y, z) and the real orthogonal k1 and p whose magic-basis
conjugates are the local tensor products; the local-factor pass
(`kak_local_factors`) splits those products into single-qubit unitaries.
`all_three_rows` tells, from the interaction pass alone, which rows lower
every dressing to the full RZ SX RZ SX RZ string (`zsx_angles` count 3), so
a caller that needs only gate counts can skip the second pass for them.

Every step works on a stack (k, 4, 4) of payloads at once, so the SU(4) gates
of a circuit are factored in one pass; only the rows whose interaction
spectrum is near-degenerate take the per-matrix refinement and retries.
"""

import numpy as np

from ..circuit import _H, _X, UNITARY_TOL
from ..errors import InvalidGateError

_I2 = np.eye(2, dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)

MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2)

# columns: magic-basis diagonal patterns of XX, YY, ZZ, II;
# theta = _COEFF @ (x, y, z, w)
_COEFF = np.array(
    [[1, -1, 1, 1], [1, 1, -1, 1], [-1, -1, -1, 1], [-1, 1, 1, 1]], dtype=float
)


def _rx(t: np.ndarray) -> np.ndarray:
    """Rx(t) for each angle of t, as a stack (k, 2, 2)."""
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.stack([np.stack([c, -1j * s], -1), np.stack([-1j * s, c], -1)], -2)


def _rz(t: np.ndarray) -> np.ndarray:
    """Rz(t) for each angle of t, as a stack (k, 2, 2)."""
    lo, hi = np.exp(-0.5j * t), np.exp(0.5j * t)
    zero = np.zeros_like(lo)
    return np.stack([np.stack([lo, zero], -1), np.stack([zero, hi], -1)], -2)


def canonical_matrix(x: float, y: float, z: float) -> np.ndarray:
    """exp(i(x XX + y YY + z ZZ)); the three terms commute and square to I."""
    out = np.eye(4, dtype=complex)
    for t, p in ((x, np.kron(_X, _X)), (y, np.kron(_Y, _Y)), (z, np.kron(_Z, _Z))):
        out = out @ (np.cos(t) * np.eye(4) + 1j * np.sin(t) * p)
    return out


def _proper(v: np.ndarray) -> np.ndarray:
    """Negate column 0 of each real orthogonal matrix of the stack v whose
    determinant is -1, in place; returns the mask of negated rows."""
    neg = np.linalg.det(v) < 0
    v[neg, :, 0] = -v[neg, :, 0]
    return neg


def _refine_clusters(w: np.ndarray, v: np.ndarray, b: np.ndarray, tol: float) -> None:
    """Inside each run of eigenvalues w closer than tol, rotate the columns of
    v (one matrix, in place) onto eigenvectors of b restricted to that run."""
    i, n = 0, len(w)
    while i < n:
        j = i + 1
        while j < n and w[j] - w[i] < tol:
            j += 1
        if j - i > 1:
            sub = v[:, i:j]
            _, bv = np.linalg.eigh(sub.T @ b @ sub)
            v[:, i:j] = sub @ bv
        i = j


def _simdiag_symmetric_unitary(m2: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Real orthogonal P (det +1) with P.T @ m2 @ P diagonal, for each m2 of a
    stack of complex symmetric unitaries.

    The real and imaginary parts of m2 are commuting real symmetric matrices:
    diagonalize the real part, then, on the rows whose spectrum has
    (near-)degenerate eigenvalues, refine inside those eigenspaces with the
    imaginary part.
    """
    w, v = np.linalg.eigh(m2.real)
    for r in np.flatnonzero((np.diff(w, axis=-1) < tol).any(axis=-1)):
        _refine_clusters(w[r], v[r], m2[r].imag, tol)
    _proper(v)
    return v


# retries after the cluster-refined basis, each on a seeded random real
# combination of Re and Im (as in Qiskit's Weyl decomposition); the fixed seed
# keeps the decomposition a deterministic function of its input
_RETRIES = 100
_RETRY_SEED = 2020


def _retry_bases(m2: np.ndarray):
    """Further candidate bases P (one-row stacks) for one matrix m2.

    Near a degenerate spectrum the cluster threshold of the first candidate
    can split a cluster wrongly; a generic combination a*Re + b*Im has
    simple eigenvalues there, so its eigenvectors diagonalize both parts.
    """
    rng = np.random.default_rng(_RETRY_SEED)
    for _ in range(_RETRIES):
        a, b = rng.random(2)
        _, v = np.linalg.eigh((a * m2.real + b * m2.imag)[None])
        _proper(v)
        yield v


def _phase_columns(m: np.ndarray, p: np.ndarray):
    """(theta, k1, ok) per row of the stacks m, p: m @ p == k1 * e^{i theta}
    column by column, and ok where k1 is real within `UNITARY_TOL`."""
    mp = m @ p
    # column j of m@p equals e^{i theta_j} times a real orthonormal column
    d = np.einsum("kij,kij->kj", mp, mp)
    theta = 0.5 * np.angle(d)
    # keep half-angles in (-pi/2, pi/2]; values at the boundary snap upward
    # so that repeated runs land on the same branch
    theta = np.where(theta < -np.pi / 2 + 1e-12, theta + np.pi, theta)
    k1 = mp * np.exp(-1j * theta)[:, None, :]
    return theta, k1, np.abs(k1.imag).max(axis=(1, 2)) <= UNITARY_TOL


def factor_kron(m4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each exact tensor product of a stack into (hi, lo) with
    m4 == kron(hi, lo), scaled to det(lo) == 1 unless |det(lo)| <= 1e-12."""
    r = m4.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(r)
    scale = np.sqrt(s[:, :1])
    hi = (u[:, :, 0] * scale).reshape(-1, 2, 2)
    lo = (vh[:, 0, :] * scale).reshape(-1, 2, 2)
    det = np.linalg.det(lo)
    big = np.abs(det) > 1e-12
    phase = np.sqrt(det[big])[:, None, None]
    lo[big] /= phase
    hi[big] *= phase
    return hi, lo


def kak_interaction(u: np.ndarray):
    """The interaction pass of `kak_decompose` on a stack u (k, 4, 4):
    (gamma, k1, p, xyz, w) with, per row,

        u == e^{i(gamma + w)} MAGIC k1 MAGIC^dag . canonical_matrix(x, y, z)
             . MAGIC p^T MAGIC^dag

    where k1 and p are real orthogonal with determinant +1, so that both
    magic-basis conjugates are tensor products of single-qubit unitaries,
    and xyz is the (k, 3) array of (x, y, z). One Newton-Schulz step first
    moves u to the nearest unitary, so that any payload within `UNITARY_TOL`
    of unitary factors.
    """
    u = u @ (1.5 * np.eye(4) - 0.5 * (u.conj().swapaxes(1, 2) @ u))
    gamma = np.angle(np.linalg.det(u)) / 4
    us = u * np.exp(-1j * gamma)[:, None, None]
    m = MAGIC.conj().T @ us @ MAGIC
    m2 = m.swapaxes(1, 2) @ m
    p = _simdiag_symmetric_unitary(m2)
    theta, k1, ok = _phase_columns(m, p)
    for r in np.flatnonzero(~ok):
        for pr in _retry_bases(m2[r]):
            tr, kr, okr = _phase_columns(m[r : r + 1], pr)
            if okr[0]:
                p[r], theta[r], k1[r] = pr[0], tr[0], kr[0]
                break
        else:
            raise InvalidGateError(
                f"KAK decomposition failed: input is not unitary within {UNITARY_TOL}"
            )
    k1 = k1.real.copy()  # not a view, which would keep the complex array alive
    theta[_proper(k1), 0] += np.pi
    x, y, z, w = np.linalg.solve(_COEFF, theta[:, :, None])[:, :, 0].T
    return gamma, k1, p, np.stack([x, y, z], -1), w


def kak_local_factors(k1: np.ndarray, p: np.ndarray):
    """The local-factor pass of `kak_decompose`: (a1, a0, b1, b0), stacks
    (k, 2, 2), from the interaction pass's k1 and p."""
    ka, kb = _tensor_products(k1, p)
    return (*factor_kron(ka), *factor_kron(kb))


def _tensor_products(k1: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """kron(a1, a0) and kron(b1, b0): the magic-basis conjugates of k1 and p^T."""
    return MAGIC @ k1 @ MAGIC.conj().T, MAGIC @ p.swapaxes(1, 2) @ MAGIC.conj().T


def kak_decompose(u: np.ndarray):
    """Return (phase, a1, a0, (x, y, z), b1, b0) with

        u == phase * kron(a1, a0) @ canonical_matrix(x, y, z) @ kron(b1, b0)

    where a*/b* are single-qubit unitaries acting on the high/low bit.
    `u` is one (4, 4) matrix or a stack (k, 4, 4); for a stack every value
    gains a leading axis of length k and (x, y, z) is a (k, 3) array.
    It is `kak_interaction` followed by `kak_local_factors`.
    """
    single = u.ndim == 2
    gamma, k1, p, xyz, w = kak_interaction(u.reshape(-1, 4, 4))
    a1, a0, b1, b0 = kak_local_factors(k1, p)
    phase = np.exp(1j * (gamma + w))
    if single:
        return phase[0], a1[0], a0[0], tuple(xyz[0].tolist()), b1[0], b0[0]
    return phase, a1, a0, xyz, b1, b0


def zsx_angles(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, angles) for a stack u (k, 2, 2): row i of angles holds RZ angles
    [a1, a2, a3] (application order) with
    u[i] ~ RZ(a3) . SX . RZ(a2) . SX . RZ(a1) (matrix order), and n[i] is the
    gate count: 3 for that string, 1 for a diagonal u[i] (a single RZ(a1)),
    0 for the identity (no gate).
    """
    u00, u01, u10, u11 = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]
    # ZYZ Euler angles: u ~ phase * [[c, -e^{i lam} s], [e^{i phi} s, e^{i(phi+lam)} c]]
    # with c, s = cos, sin(theta / 2); a zero in the first column fixes theta
    # at pi or 0 and leaves only phi + lam, carried by phi
    antidiag = np.abs(u00) < 1e-12
    diag = ~antidiag & (np.abs(u10) < 1e-12)
    p00, p10, pm01 = np.angle(u00), np.angle(u10), np.angle(-u01)
    theta = np.select([antidiag, diag], [np.pi, 0.0], 2.0 * np.arctan2(np.abs(u10), np.abs(u00)))
    phi = np.select([antidiag, diag], [p10 - pm01, np.angle(u11) - p00], p10 - p00)
    lam = np.where(antidiag | diag, 0.0, pm01 - p00)
    one_rz = np.abs(theta) < 1e-12
    a = (phi + lam + np.pi) % (2 * np.pi) - np.pi
    n = np.where(one_rz, np.where(np.abs(a) < 1e-12, 0, 1), 3)
    return n, np.stack([np.where(one_rz, a, lam), theta + np.pi, phi + np.pi], -1)


# interaction-part dressings for the three-CX identity, in application order:
# layer after the first CX, and layer after the second CX
def canonical_layers(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """1q dressings (hi, lo) of the 3-CX circuit for exp(i(x XX + y YY + z ZZ)),
    for arrays x, y, z of length k.

    Application order: PRE (hi, lo), CX, MID1, CX, MID2, CX. PRE is I (x) Sdg,
    returned so callers can merge it with preceding gates. Factors that do not
    depend on (x, y, z) are single 2x2 matrices, the others (k, 2, 2) stacks.
    """
    pre = (_I2, _S.conj().T)
    mid1 = (_rx(2 * y) @ _S, _H @ _S)
    mid2 = (_rx(-2 * x), _rz(-2 * z) @ _H)
    return pre, mid1, mid2


# A dressing's `zsx_angles` count is 3 unless its entry [1, 0] is within
# about 1e-12 of zero: the two 1e-12 branches there (with |[0, 0]| <= 1, a
# larger entry gives theta >= 2e-12). Of the eight dressings, H S and
# RZ(-2z) H have |[1, 0]| = 1/sqrt(2), RX(2y) S has |sin y| and RX(-2x) has
# |sin x|; b1, Sdg b0, a1 and a0 have their local factor's |[1, 0]|, which
# `all_three_rows` reads from the tensor products without an SVD. That read
# equals the SVD's to within the orthogonality of k1 and p, which the
# interaction pass holds to `UNITARY_TOL` (1e-7). The margin sits three
# orders above that and eight above 1e-12, so a row that clears it on all
# six magnitudes has eight counts of 3 however either path rounds; 11 of
# 20 000 Haar rows (`haar_su4`, seed 0) fall below it.
DRESSING_MARGIN = 1e-4


def all_three_rows(k1: np.ndarray, p: np.ndarray, xyz: np.ndarray) -> np.ndarray:
    """Mask of the rows of an interaction pass whose eight three-CX dressings
    all have `zsx_angles` count 3, read without the local-factor pass: |sin x|,
    |sin y| and |[1, 0]| of a1, a0, b1 and b0 all exceed `DRESSING_MARGIN`.

    kron(hi, lo) rearranged to vec(hi) vec(lo)^T (as in `factor_kron`) has
    row 2 = hi[1, 0] vec(lo) and column 2 = lo[1, 0] vec(hi); the factors
    are unitary, so |hi[1, 0]|^2 is half of row 2's squared norm and
    |lo[1, 0]|^2 half of column 2's.
    """
    floor = 2 * DRESSING_MARGIN**2
    ok = (np.abs(np.sin(xyz[:, :2])) > DRESSING_MARGIN).all(axis=1)
    for m4 in _tensor_products(k1, p):
        r = np.abs(m4.reshape(-1, 2, 2, 2, 2)) ** 2  # r[k, i1, i0, j1, j0]
        ok &= r[:, 1, :, 0, :].sum(axis=(1, 2)) > floor  # row 2: i1 = 1, j1 = 0
        ok &= r[:, :, 1, :, 0].sum(axis=(1, 2)) > floor  # column 2: i0 = 1, j0 = 0
    return ok
