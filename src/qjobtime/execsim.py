"""Parametric execution-stack simulator: synthetic "actual" runtimes.

The stack is modeled with a per-job overhead, a per-circuit overhead (compile
and waveform load), and a per-(layer x shot) execution rate, plus optional
multiplicative jitter:

    T = (t_job + M*t_circ + M*K*S*d_eff*t_layer_shot) * (1 + eta)

With zero overheads and t_layer_shot = 1/C this reproduces the prediction
(bit for bit when C is a power of two, for any M); with t_circ > 0 it
reproduces the under-prediction of low-shot jobs (predictions scale with S
while the simulated time has an S-independent floor), and a t_layer_shot
below the CLOPS-implied rate yields over-prediction at high S.
"""

from collections import namedtuple
from typing import Sequence

import numpy as np

from .errors import FitError, InvalidParameterError
from .model import FrozenRecord, JobSpec, check_range, json_typed


class StackTimingParams(FrozenRecord, namedtuple(
        "StackTimingParams", "t_job t_circ t_layer_shot jitter", defaults=(0.0,))):
    """Stack timing: fixed per-job seconds, per-circuit seconds, seconds per
    layer-shot, and relative jitter amplitude (sigma of a truncated normal)."""

    __slots__ = ()

    def _check(self):
        for name in ("t_job", "t_circ", "t_layer_shot"):
            check_range(name, getattr(self, name), 0.0, closed=True)
        if not 0 <= self.jitter < 1:
            raise InvalidParameterError("jitter must lie in [0, 1)")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, spec: dict) -> "StackTimingParams":
        """Parameters from a JSON object of numbers; `jitter` may be left out."""
        try:
            fields = {"jitter": 0.0, **spec}
            return cls(*(float(json_typed(k, fields[k], int, float))
                         for k in ("t_job", "t_circ", "t_layer_shot", "jitter")))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"bad timing parameters {spec!r}: {exc}") from exc


def _noiseless_runtime(job: JobSpec, params: StackTimingParams) -> float:
    return params.t_job + job.circuits * params.t_circ + job.total_layers * params.t_layer_shot


def simulate_job_runtime(job: JobSpec, params: StackTimingParams, seed=0) -> float:
    """Synthetic wall-clock seconds; deterministic for a fixed seed.

    Jitter is a Normal(0, sigma) factor truncated to (-0.9, inf) so simulated
    runtimes stay positive.
    """
    base = _noiseless_runtime(job, params)
    if params.jitter == 0.0:
        return base
    rng = np.random.default_rng(seed)
    eta = rng.normal(0.0, params.jitter)
    while eta <= -0.9:
        eta = rng.normal(0.0, params.jitter)
    return base * (1.0 + eta)


def _design_matrix(jobs: Sequence[JobSpec], fit_t_job: bool) -> np.ndarray:
    cols = []
    if fit_t_job:
        cols.append(np.ones(len(jobs)))
    cols.append(np.array([j.circuits for j in jobs], dtype=float))
    cols.append(np.array([j.total_layers for j in jobs]))
    return np.column_stack(cols)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0. The optimum is the least-squares fit on
    its own support (Lawson & Hanson 1974, ch. 23), so the best nonnegative fit
    over all column subsets (at most 7 here) is exact; x = 0 if none is. A
    subset whose fit overflows (a subnormal column) is not feasible."""
    n = a.shape[1]
    feasible = [np.zeros(n)]
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        x = np.zeros(n)
        x[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
        if x.min() >= 0 and np.isfinite(x).all():
            feasible.append(x)
    return min(feasible, key=lambda x: float(np.sum((a @ x - b) ** 2)))


def _diagnose_rank(jobs: Sequence[JobSpec], fit_t_job: bool) -> str:
    ms = {j.circuits for j in jobs}
    if fit_t_job and len(ms) == 1:
        return (
            "t_job and t_circ are not jointly identifiable: every observation has "
            f"M={ms.pop()}; vary the circuit count or fix t_job"
        )
    rates = {j.updates * j.shots * j.d_eff for j in jobs}
    if len(rates) == 1:
        return (
            "t_circ and t_layer_shot are not jointly identifiable: every observation "
            f"has K*S*d_eff={rates.pop()}; vary the shot count"
        )
    return "design matrix is rank deficient; observations do not separate the parameters"


def fit_params(
    observations: Sequence[tuple[JobSpec, float]],
    fix_t_job: float | None = None,
) -> StackTimingParams:
    """Least-squares calibration of (t_job, t_circ, t_layer_shot) from
    (job, measured seconds) pairs, with jitter set from relative residuals.

    Needs at least 3 observations spanning distinct shot counts. Refuses
    rank-deficient designs, naming the parameters it cannot separate; fixing
    t_job (e.g. to 0) restores identifiability for constant-M data.
    """
    if fix_t_job is not None:
        check_range("t_job", fix_t_job, 0.0, closed=True)
    if len(observations) < 3:
        raise FitError("need at least 3 observations to fit 3 timing parameters")
    jobs = [job for job, _ in observations]
    times = np.array([t for _, t in observations], dtype=float)
    if np.any(times <= 0):
        raise InvalidParameterError("observed runtimes must be positive")
    if len({j.shots for j in jobs}) < 2:
        raise FitError("observations must span distinct shot counts")
    fit_t_job = fix_t_job is None
    design = _design_matrix(jobs, fit_t_job)
    target = times if fit_t_job else times - fix_t_job
    svals = np.linalg.svd(design, compute_uv=False)
    if svals[-1] < 1e-10 * svals[0]:
        raise FitError(_diagnose_rank(jobs, fit_t_job))
    coef = _nnls(design, target)
    if fit_t_job:
        t_job, t_circ, t_layer_shot = coef
    else:
        t_job = fix_t_job
        t_circ, t_layer_shot = coef
    base = StackTimingParams(float(t_job), float(t_circ), float(t_layer_shot))
    fitted = np.array([_noiseless_runtime(j, base) for j in jobs])
    if np.any(fitted <= 0):
        raise FitError("fitted model collapses to zero runtime; data inconsistent")
    sigma = float(np.std(times / fitted - 1.0))
    return StackTimingParams(base.t_job, base.t_circ, base.t_layer_shot, min(sigma, 0.999))

