"""Two-qubit unitary factorization into single-qubit gates and three CX.

Any U in U(4) factors as

    U = phase * (A1 (x) A0) . exp(i(x XX + y YY + z ZZ)) . (B1 (x) B0)

which is computed in the magic (Bell) basis: local unitaries become real
orthogonal matrices there, and the interaction content becomes a diagonal of
phases. The interaction part is then emitted through a fixed three-CX circuit
identity that reproduces exp(i(x XX + y YY + z ZZ)) exactly, including phase:

    CX . (Rx(-2x) (x) Rz(-2z)H) . CX . (Rx(2y)S (x) HS) . CX . (I (x) Sdg)

Single-qubit factors are lowered to RZ/SX strings via ZYZ Euler angles.
"""

import numpy as np

from ..circuit import UNITARY_TOL
from ..errors import InvalidGateError

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)

MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) / np.sqrt(2)

# columns: magic-basis diagonal patterns of XX, YY, ZZ, II;
# theta = _COEFF @ (x, y, z, w)
_COEFF = np.array(
    [[1, -1, 1, 1], [1, 1, -1, 1], [-1, -1, -1, 1], [-1, 1, 1, 1]], dtype=float
)


def _rx(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz(t):
    return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])


def canonical_matrix(x: float, y: float, z: float) -> np.ndarray:
    """exp(i(x XX + y YY + z ZZ)); the three terms commute and square to I."""
    out = np.eye(4, dtype=complex)
    for t, p in ((x, np.kron(_X, _X)), (y, np.kron(_Y, _Y)), (z, np.kron(_Z, _Z))):
        out = out @ (np.cos(t) * np.eye(4) + 1j * np.sin(t) * p)
    return out


def _simdiag_symmetric_unitary(m2: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Real orthogonal P (det +1) with P.T @ m2 @ P diagonal.

    m2 is complex symmetric unitary, so its real and imaginary parts are
    commuting real symmetric matrices: diagonalize the real part, then refine
    inside (near-)degenerate eigenspaces with the imaginary part.
    """
    a, b = m2.real, m2.imag
    w, v = np.linalg.eigh(a)
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
    if np.linalg.det(v) < 0:
        v[:, 0] = -v[:, 0]
    return v


# retries after the cluster-refined basis, each on a seeded random real
# combination of Re and Im (as in Qiskit's Weyl decomposition); the fixed seed
# keeps the decomposition a deterministic function of its input
_RETRIES = 100
_RETRY_SEED = 2020


def _interaction_bases(m2: np.ndarray):
    """Candidate real orthogonal P (det +1) diagonalizing m2, best guess first.

    Near a degenerate spectrum the cluster threshold of the first candidate
    can split a cluster wrongly; a generic combination a*Re + b*Im has
    simple eigenvalues there, so its eigenvectors diagonalize both parts.
    """
    yield _simdiag_symmetric_unitary(m2)
    rng = np.random.default_rng(_RETRY_SEED)
    for _ in range(_RETRIES):
        a, b = rng.random(2)
        _, v = np.linalg.eigh(a * m2.real + b * m2.imag)
        if np.linalg.det(v) < 0:
            v[:, 0] = -v[:, 0]
        yield v


def factor_kron(m4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an exact tensor product into (hi, lo) with m4 = kron(hi, lo)."""
    r = m4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(r)
    hi = u[:, 0] * np.sqrt(s[0])
    lo = vh[0, :] * np.sqrt(s[0])
    hi = hi.reshape(2, 2)
    lo = lo.reshape(2, 2)
    det = np.linalg.det(lo)
    if abs(det) > 1e-12:
        phase = np.sqrt(det)
        lo = lo / phase
        hi = hi * phase
    return hi, lo


def kak_decompose(u: np.ndarray):
    """Return (phase, a1, a0, (x, y, z), b1, b0) with

        u == phase * kron(a1, a0) @ canonical_matrix(x, y, z) @ kron(b1, b0)

    where a*/b* are single-qubit unitaries acting on the high/low bit.
    """
    det = np.linalg.det(u)
    gamma = np.angle(det) / 4
    us = u * np.exp(-1j * gamma)
    m = MAGIC.conj().T @ us @ MAGIC
    for p in _interaction_bases(m.T @ m):
        mp = m @ p
        # column j of m@p equals e^{i theta_j} times a real orthonormal column
        d = np.einsum("ij,ij->j", mp, mp)
        theta = 0.5 * np.angle(d)
        # keep half-angles in (-pi/2, pi/2]; values at the boundary snap upward
        # so that repeated runs land on the same branch
        theta = np.where(theta < -np.pi / 2 + 1e-12, theta + np.pi, theta)
        k1 = mp * np.exp(-1j * theta)[None, :]
        if np.abs(k1.imag).max() <= UNITARY_TOL:
            break
    else:
        raise InvalidGateError(
            f"KAK decomposition failed: input is not unitary within {UNITARY_TOL}"
        )
    k1 = k1.real
    if np.linalg.det(k1) < 0:
        k1[:, 0] = -k1[:, 0]
        theta = theta.copy()
        theta[0] += np.pi
    x, y, z, w = np.linalg.solve(_COEFF, theta)
    l1 = MAGIC @ k1 @ MAGIC.conj().T
    l2 = MAGIC @ p.T @ MAGIC.conj().T
    a1, a0 = factor_kron(l1)
    b1, b0 = factor_kron(l2)
    return np.exp(1j * (gamma + w)), a1, a0, (float(x), float(y), float(z)), b1, b0


def zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Euler angles with u ~ phase * [[c, -e^{i lam} s], [e^{i phi} s, e^{i(phi+lam)} c]]."""
    theta = 2.0 * np.arctan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[0, 0]) < 1e-12:
        return np.pi, float(np.angle(u[1, 0]) - np.angle(-u[0, 1])), 0.0
    if abs(u[1, 0]) < 1e-12:
        return 0.0, float(np.angle(u[1, 1]) - np.angle(u[0, 0])), 0.0
    phi = np.angle(u[1, 0]) - np.angle(u[0, 0])
    lam = np.angle(-u[0, 1]) - np.angle(u[0, 0])
    return float(theta), float(phi), float(lam)


def _wrap(angle: float) -> float:
    return float((angle + np.pi) % (2 * np.pi) - np.pi)


def zsx_angles(u: np.ndarray) -> list[float] | None:
    """RZ angles for u ~ RZ(a3) . SX . RZ(a2) . SX . RZ(a1) (matrix order),
    returned in application order [a1, a2, a3].

    Diagonal inputs collapse to a single angle [a]; identity returns None.
    """
    theta, phi, lam = zyz_angles(u)
    if abs(theta) < 1e-12:
        a = _wrap(phi + lam)
        return None if abs(a) < 1e-12 else [a]
    return [lam, theta + np.pi, phi + np.pi]


# interaction-part dressings for the three-CX identity, in application order:
# layer after the first CX, and layer after the second CX
def canonical_layers(x: float, y: float, z: float):
    """1q dressings (hi, lo) of the 3-CX circuit for exp(i(x XX + y YY + z ZZ)).

    Application order: PRE (hi, lo), CX, MID1, CX, MID2, CX. PRE is I (x) Sdg,
    returned so callers can merge it with preceding gates.
    """
    pre = (_I2, _S.conj().T)
    mid1 = (_rx(2 * y) @ _S, _H @ _S)
    mid2 = (_rx(-2 * x), _rz(-2 * z) @ _H)
    return pre, mid1, mid2
