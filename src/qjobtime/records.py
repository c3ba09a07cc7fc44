"""Tabular I/O for the CSV inputs: runtime records (header
`backend,M,S,K,deff,T_seconds`, one job per row), prediction pairs
(`T_pred,T_actual`) and headerless kernel datasets (one feature vector per row).
"""

import csv
import math
import warnings
from collections import namedtuple

from .errors import InvalidParameterError, MalformedRecordsError
from .model import FrozenRecord, JobSpec, check_range

RECORD_HEADER = ["backend", "M", "S", "K", "deff", "T_seconds"]
PAIRS_HEADER = ["T_pred", "T_actual"]
# most rows one command reads or builds and holds: a record or pair CSV, or a
# `sweep` or `extrapolate` grid. At the bound on a 2-CPU host, a one-family
# sweep took 30 s, an extrapolate 13 s, a `score` of records 16 s and a `fit` 12 s
MAX_GRID_ROWS = 10**6


class RuntimeRecord(FrozenRecord, namedtuple("RuntimeRecord", "job backend seconds")):
    """One recorded run: its job, the backend it ran on and its wall-clock seconds."""

    __slots__ = ()


def _number(cell: str, low: float = -math.inf) -> float:
    value = float(cell)
    check_range(repr(cell.strip()), value, low)
    return value


def _parse_rows(path, header, parse_row) -> list:
    """`parse_row` of every nonblank row after `header` (None: no header, any
    width); every bad row is a `MalformedRecordsError` naming its row number,
    and so is the first row over `MAX_GRID_ROWS` of a file with a header."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if header is not None:
            first = next(reader, None)
            if first is None:
                raise MalformedRecordsError(f"{path}: empty file, expected header {header}")
            if [h.strip() for h in first] != header:
                raise MalformedRecordsError(f"{path}: bad header {first}, expected {header}")
        for row_no, row in enumerate(reader, start=1 if header is None else 2):
            if not any(cell.strip() for cell in row):
                continue
            if header is not None and len(out) == MAX_GRID_ROWS:
                raise MalformedRecordsError(f"{path}:{row_no}: more than {MAX_GRID_ROWS} rows")
            if header is not None and len(row) != len(header):
                raise MalformedRecordsError(f"{path}:{row_no}: expected {len(header)} columns")
            try:
                out.append(parse_row(row))
            except (ValueError, InvalidParameterError) as exc:
                raise MalformedRecordsError(f"{path}:{row_no}: {exc}") from exc
    return out


def _record(row) -> RuntimeRecord:
    job = JobSpec(int(row[1]), int(row[2]), int(row[3]), float(row[4]))
    return RuntimeRecord(job, row[0].strip(), _number(row[5], 0.0))


def holds_prediction_pairs(path) -> bool:
    """Whether a CSV's header is `T_pred,T_actual` rather than a record header."""
    with open(path, newline="") as fh:
        first = next(csv.reader(fh), [])
    return [h.strip() for h in first] == PAIRS_HEADER


def load_runtime_records(path) -> list[RuntimeRecord]:
    """Parse and validate a runtime-record CSV; error messages carry the
    offending row number. An empty body yields an empty list with a warning."""
    records = _parse_rows(path, RECORD_HEADER, _record)
    if not records:
        warnings.warn(f"{path}: no runtime records found", stacklevel=2)
    return records


def load_prediction_pairs(path) -> list[tuple[float, float]]:
    """Positive, finite (T_pred, T_actual) rows of a prediction-pair CSV."""
    return _parse_rows(path, PAIRS_HEADER, lambda row: (_number(row[0], 0.0), _number(row[1], 0.0)))


def load_dataset(path) -> list[list[float]]:
    """Feature vectors of a headerless kernel dataset, one finite row each."""
    dataset = _parse_rows(path, None, lambda row: [_number(cell) for cell in row])
    if not dataset:
        raise InvalidParameterError(f"{path}: no feature vectors found")
    return dataset


def write_csv(path, header, rows) -> None:
    """A CSV of `header` then `rows`, every float as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def save_runtime_records(path, records) -> None:
    rows = [[r.backend, r.job.circuits, r.job.shots, r.job.updates, r.job.d_eff, r.seconds]
            for r in records]
    write_csv(path, RECORD_HEADER, rows)
