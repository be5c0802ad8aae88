"""Calibration factor, error metrics, and repeatability.

Errors are signed percentages throughout; "maximum error" reporting uses
the largest magnitude. The flow-weighted mean error weights each rate's
error by its flow relative to the largest tested flow.
"""

import math
from collections import namedtuple
from typing import Iterable, Iterator, Sequence

from ._record import record
from .errors import OutOfRangeError

TRIAL_CSV_HEADER = "segment_id,flow_label,q_ref_lps,q_meas_lps"


@record
class TrialRecord:
    """One measurement trial against the reference meter (flows in L/s)."""

    segment_id: int
    flow_label: str
    q_ref_lps: float
    q_meas_lps: float

    def __post_init__(self):
        if not self.flow_label.strip():
            raise OutOfRangeError("flow_label must not be empty")
        if not 0 < self.q_ref_lps < math.inf:
            raise OutOfRangeError(
                f"reference flow must be finite and positive, got {self.q_ref_lps!r}")
        if not math.isfinite(self.q_meas_lps):
            raise OutOfRangeError(f"measured flow must be finite, got {self.q_meas_lps!r}")


def percent_error(q_meas: float, q_ref: float) -> float:
    """Signed percent deviation of the measurement from the reference."""
    if not 0 < q_ref < math.inf:
        raise OutOfRangeError(f"reference flow must be positive and finite, got {q_ref!r}")
    if not math.isfinite(q_meas):
        raise OutOfRangeError(f"measured flow must be finite, got {q_meas!r}")
    return 100.0 * (q_meas - q_ref) / q_ref


def fwme(errors: Iterable[tuple[float, float]]) -> float:
    """Flow-Weighted Mean Error over (q_ref, error_pct) pairs.

    Each error is weighted by q_ref / max(q_ref); a single entry's FWME is
    that entry's error, and equal flows reduce to the arithmetic mean.
    """
    pairs = list(errors)
    if not pairs:
        raise OutOfRangeError("FWME needs at least one (flow, error) pair")
    for q, e in pairs:
        if not 0 < q < math.inf:
            raise OutOfRangeError(f"reference flow must be positive and finite, got {q!r}")
        if not math.isfinite(e):
            raise OutOfRangeError(f"error must be finite, got {e!r}")
    q_max = max(q for q, _ in pairs)
    weights = [q / q_max for q, _ in pairs]
    return math.fsum(w * e for w, (_, e) in zip(weights, pairs)) / math.fsum(weights)


def calibration_factor(trials: Sequence[TrialRecord]) -> float:
    """Single multiplicative k_cal: mean of q_ref/q_meas over the trials."""
    if not trials:
        raise OutOfRangeError("calibration needs at least one trial")
    ratios = []
    for t in trials:
        if not t.q_meas_lps > 0:
            raise OutOfRangeError(
                f"measured flow must be positive for calibration, got {t.q_meas_lps!r}"
            )
        ratios.append(t.q_ref_lps / t.q_meas_lps)
    return math.fsum(ratios) / len(ratios)


def repeatability(samples: Sequence[float]) -> float:
    """Relative sample standard deviation in percent.

    R = 100 * sqrt(sum((Q_i - mean)^2) / (n - 1)) / mean, n >= 2.
    The sums run on deviations from the first sample, so identical
    samples give exactly zero.
    """
    n = len(samples)
    if n < 2:
        raise OutOfRangeError(f"repeatability needs at least 2 samples, got {n}")
    shifted = [q - samples[0] for q in samples]
    offset = math.fsum(shifted) / n
    mean = samples[0] + offset
    if mean == 0:
        raise OutOfRangeError("repeatability undefined for zero mean flow")
    variance = math.fsum((d - offset) ** 2 for d in shifted) / (n - 1)
    return 100.0 * math.sqrt(variance) / abs(mean)


# One flow rate's mean error; the rows by reference flow, with their FWME and max |error|.
ErrorRow = namedtuple("ErrorRow", "flow_label q_ref_lps error_pct")
ErrorTable = namedtuple("ErrorTable", "rows fwme_pct max_abs_error_pct")


def error_table(trials: Sequence[TrialRecord], k_cal: float) -> ErrorTable:
    """Per-flow-rate mean percent error (after applying k_cal) plus FWME."""
    if not trials:
        raise OutOfRangeError("error table needs at least one trial")
    if not 0 < k_cal < math.inf:
        raise OutOfRangeError(f"k_cal must be finite and positive, got {k_cal!r}")
    by_label: dict[str, list[TrialRecord]] = {}
    for t in trials:
        by_label.setdefault(t.flow_label, []).append(t)
    rows = []
    for label, group in by_label.items():
        q_ref = math.fsum(t.q_ref_lps for t in group) / len(group)
        err = math.fsum(percent_error(k_cal * t.q_meas_lps, t.q_ref_lps)
                        for t in group) / len(group)
        rows.append(ErrorRow(label, q_ref, err))
    rows.sort(key=lambda r: r.q_ref_lps)
    return ErrorTable(
        rows=tuple(rows),
        fwme_pct=fwme((r.q_ref_lps, r.error_pct) for r in rows),
        max_abs_error_pct=max(abs(r.error_pct) for r in rows),
    )


def first_segments(trials: Sequence[TrialRecord]) -> list[TrialRecord]:
    """The earliest segment of each flow rate; the calibration subset."""
    firsts: dict[str, TrialRecord] = {}
    for t in trials:
        current = firsts.get(t.flow_label)
        if current is None or t.segment_id < current.segment_id:
            firsts[t.flow_label] = t
    return [firsts[label] for label in sorted(firsts, key=lambda lb: firsts[lb].q_ref_lps)]


def _decimal(convert, text: str):
    """``convert(text)``, ``int`` or ``float``, refusing the digit separators both accept
    (``2_0`` would read as 20): the number rule of every CSV field, config value and flag."""
    if "_" in text:
        raise ValueError(f"digit separator in {text.strip()!r}")
    return convert(text)


def _csv_rows(lines: Iterable[str], header: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each data line of a CSV with ``header``'s fields: blank
    and ``#`` lines and the header itself (any case, spaces ignored) are skipped, and a
    line with another field count is refused by its number."""
    header, count = header.lower(), header.count(",") + 1
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#" or line.lower().replace(" ", "") == header:
            continue
        parts = line.split(",")
        if len(parts) != count:
            raise OutOfRangeError(f"{what} line {no}: expected {count} fields, got {len(parts)}")
        yield no, parts


def read_trials(lines: Iterable[str]) -> Iterator[TrialRecord]:
    """Parse the paired CSV ``segment_id,flow_label,q_ref_lps,q_meas_lps``."""
    for line_no, parts in _csv_rows(lines, TRIAL_CSV_HEADER, "trial CSV"):
        try:
            yield TrialRecord(_decimal(int, parts[0]), parts[1].strip(),
                              _decimal(float, parts[2]), _decimal(float, parts[3]))
        except ValueError as exc:
            raise OutOfRangeError(f"trial CSV line {line_no}: {exc}") from exc


def format_error_table(table: ErrorTable) -> str:
    """Aligned text rendering of the table."""
    lines = [f"{'flow':>8}  {'q_ref_lps':>10}  {'error_pct':>10}"]
    for row in table.rows:
        lines.append(f"{row.flow_label:>8}  {row.q_ref_lps:>10.4f}  {row.error_pct:>10.4f}")
    lines.append(f"{'FWME':>8}  {'':>10}  {table.fwme_pct:>10.4f}")
    lines.append(f"{'max|E|':>8}  {'':>10}  {table.max_abs_error_pct:>10.4f}")
    return "\n".join(lines)


def error_table_csv(table: ErrorTable) -> str:
    lines = ["flow_label,q_ref_lps,error_pct"]
    for row in table.rows:
        lines.append(f"{row.flow_label},{row.q_ref_lps!r},{row.error_pct!r}")
    lines.append(f"FWME,,{table.fwme_pct!r}")
    return "\n".join(lines) + "\n"
