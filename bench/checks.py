"""Output checks. Every failure is counted against the operations attempted.

Two kinds of failure are kept apart:

- *wrong*: the output contradicts the benchmark's own recomputation or the
  stored reference (a flow off its closed form, a missing alarm, a bad
  calibration factor). Any of these makes the run incorrect.
- *unusable*: the output cannot be used, though it contradicts nothing: a
  value plain ``float()`` cannot read, or a non-finite flow reported ``ok``
  for a frame with a dropped-out transit time. These count as failed
  operations; they are the program's known defects at the time the
  benchmark was written, and are reported, never filtered out.
"""

import math
import statistics
from dataclasses import dataclass, field

import reference
from inputs import FrameLog, SimPoint, is_valid_reading

# Closed-form recomputation of q from the input rows.
FLOW_REL_TOL = 1e-9
# Derived polynomial (table at the run-time rel_tol of 1e-6) against the
# same fit of the tight table: the c05 tolerance. The gap at the seed is
# below 1e-7.
DERIVE_FPCF_TOL = 2e-5
# Noise-free simulate output decoded through the reference FPCF.
SIM_FLOW_REL_TOL = 2e-5
# Metrics table values are printed to 4 decimals.
TABLE_TOL = 6e-5


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list = field(default_factory=list)
    flow_err_max: float = 0.0

    def fail(self, note: str, wrong: bool) -> None:
        """An operation (frame or point) failed its check."""
        self.failed += 1
        self.wrong += wrong
        self._note(note)

    def problem(self, note: str) -> None:
        """A wrong output that is not one operation (a count, an alarm, k_cal)."""
        self.wrong += 1
        self._note(note)

    def _note(self, note: str) -> None:
        if len(self.notes) < 8:
            self.notes.append(note)

    def flow_error(self, q: float, q_true: float) -> None:
        self.flow_err_max = max(self.flow_err_max, abs(q - q_true) / q_true)


@dataclass
class Records:
    frames: dict = field(default_factory=dict)  # ts -> list of field dicts
    diagnostics: list = field(default_factory=list)  # (line_no | None, ts | None)
    alarms: list = field(default_factory=list)  # (ts, event)
    summary: dict | None = None


def _fields(rest: str) -> dict:
    return dict(token.split("=", 1) for token in rest.split())


def number(text: str | None) -> float | None:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def parse_process_output(text: str) -> Records:
    out = Records()
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "frame":
            fields = _fields(rest)
            out.frames.setdefault(number(fields.get("ts")), []).append(fields)
        elif kind == "diagnostic":
            head = _fields(rest.split(" detail=", 1)[0])
            line_no = head.get("line")
            out.diagnostics.append(
                (int(line_no) if line_no else None, number(head.get("ts")))
            )
        elif kind == "alarm":
            fields = _fields(rest)
            out.alarms.append((number(fields.get("ts")), fields.get("event")))
        elif kind == "summary":
            out.summary = _fields(rest)
    return out


def _ok_flow(fields: dict) -> float | None:
    """q of a frame record reported ok and readable, else None."""
    if fields.get("status") != "ok":
        return None
    return number(fields.get("q_lps"))


def segment_trials(records: Records, log: FrameLog) -> list[tuple[int, str, float, float]]:
    """Trial rows (segment_id, flow_label, q_ref, q_meas) from the output.

    q_meas is the mean of the finite flows reported ok in the segment.
    """
    rows = []
    for seg_id, seg in enumerate(log.segments, start=1):
        flows = []
        for index in range(seg.first, seg.first + seg.count):
            for fields in records.frames.get(log.frames[index][0], ()):
                q = _ok_flow(fields)
                if q is not None and math.isfinite(q):
                    flows.append(q)
        if flows:
            rows.append((seg_id, seg.label, seg.flow_lps, math.fsum(flows) / len(flows)))
    return rows


def write_trials(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("segment_id,flow_label,q_ref_lps,q_meas_lps\n")
        for seg_id, label, q_ref, q_meas in rows:
            fh.write(f"{seg_id},{label},{q_ref!r},{q_meas!r}\n")


def _frame_flow(readings, level_mm: float, fpcf: float) -> float | None:
    """Closed-form q over the valid chords (equal weights), or None."""
    velocities = [
        reference.line_velocity(t_up, t_down)
        for _, t_up, t_down in readings
        if is_valid_reading(t_up, t_down)
    ]
    if not velocities:
        return None
    return reference.flow_lps(fpcf, sum(velocities) / len(velocities), level_mm)


def check_frames(records: Records, log: FrameLog, tally: Tally, *,
                 coeffs=None, ref_coeffs=None) -> None:
    """One operation per input frame.

    With ``coeffs`` (a stored config polynomial) the benchmark computes
    FPCF itself; otherwise (derived polynomial) it uses the reported
    ``fpcf=`` and checks that against ``ref_coeffs``.
    """
    by_line = log.line_to_frame()
    index_of_ts = {frame[0]: i for i, frame in enumerate(log.frames)}
    diag_frames = set()
    for line_no, ts in records.diagnostics:
        if line_no in by_line:
            diag_frames.add(by_line[line_no])
        if ts in index_of_ts:
            diag_frames.add(index_of_ts[ts])
    unknown = [ts for ts in records.frames if ts not in index_of_ts]
    if unknown:
        tally.problem(f"{len(unknown)} frame records with unknown timestamps")

    seg_of = [0] * len(log.frames)
    for s, seg in enumerate(log.segments):
        seg_of[seg.first:seg.first + seg.count] = [s] * seg.count

    for index, (ts, level_mm, readings) in enumerate(log.frames):
        tally.attempted += 1
        got = records.frames.get(ts, [])
        q_true = log.segments[seg_of[index]].flow_lps
        all_valid = all(is_valid_reading(t_up, t_down) for _, t_up, t_down in readings)
        if len(got) > 1:
            tally.fail(f"ts={ts!r}: {len(got)} frame records", wrong=True)
            continue
        if not all_valid:
            _check_dropout_frame(ts, got, index in diag_frames, readings, level_mm, tally)
            continue
        if index in diag_frames or not got:
            tally.fail(f"ts={ts!r}: valid frame not reported as a frame", wrong=True)
            continue
        fields = got[0]
        reported_fpcf = number(fields.get("fpcf"))
        q = _ok_flow(fields)
        if q is None or reported_fpcf is None:
            readable = all(number(fields.get(k)) is not None for k in ("q_lps", "fpcf"))
            tally.fail(f"ts={ts!r}: status={fields.get('status')} q={fields.get('q_lps')}",
                       wrong=readable)
            continue
        if coeffs is not None:
            fpcf = reference.horner(coeffs, level_mm)
        else:
            fpcf = reported_fpcf
            if abs(fpcf - reference.horner(ref_coeffs, level_mm)) > DERIVE_FPCF_TOL:
                tally.fail(f"ts={ts!r}: fpcf={fpcf!r} off the reference polynomial",
                           wrong=True)
                continue
        expected = _frame_flow(readings, level_mm, fpcf)
        if not (math.isfinite(q) and abs(q - expected) <= FLOW_REL_TOL * abs(expected)):
            tally.fail(f"ts={ts!r}: q={q!r}, closed form {expected!r}", wrong=True)
            continue
        tally.flow_error(q, q_true)

    _check_alarms(records, log, index_of_ts, tally)
    _check_summary(records, tally)


def _check_dropout_frame(ts, got, diagnosed, readings, level_mm, tally) -> None:
    """A frame with a non-finite reading may be flagged in any honest way.

    It passes as a diagnostic, as a non-ok status, or as ok with the
    finite flow of its remaining chords. It fails if it vanishes or is
    reported ok with a non-finite flow.
    """
    if not got:
        if not diagnosed:
            tally.fail(f"ts={ts!r}: dropout frame vanished without a diagnostic", wrong=True)
        return
    fields = got[0]
    if fields.get("status") != "ok":
        return
    q = number(fields.get("q_lps"))
    fpcf = number(fields.get("fpcf"))
    if q is None or fpcf is None or not math.isfinite(q):
        tally.fail(f"ts={ts!r}: non-finite reading reported ok with q={fields.get('q_lps')}",
                   wrong=False)
        return
    expected = _frame_flow(readings, level_mm, fpcf)
    if expected is None or abs(q - expected) > FLOW_REL_TOL * abs(expected):
        tally.fail(f"ts={ts!r}: dropout frame q={q!r}, closed form {expected!r}", wrong=True)


def _check_alarms(records, log, index_of_ts, tally) -> None:
    """Each weir segment is in alarm after at least one of its frames, and
    no free-flow segment raises one.

    A weir segment that directly follows another may keep the alarm
    raised there, so it need not raise its own.
    """
    events = sorted(
        (index_of_ts[ts], event) for ts, event in records.alarms if ts in index_of_ts
    )
    raised = [0] * len(log.segments)
    in_alarm = [False] * len(log.segments)
    active, e = False, 0
    for s, seg in enumerate(log.segments):
        # in alarm after the first frame, or at the end of the segment
        for end in (seg.first + 1, seg.first + seg.count):
            while e < len(events) and events[e][0] < end:
                active = events[e][1] == "raised"
                raised[s] += active
                e += 1
            in_alarm[s] = in_alarm[s] or active
    for s, seg in enumerate(log.segments):
        if seg.weir != "none" and not (in_alarm[s] or raised[s]):
            tally.problem(f"{seg.weir} segment at {seg.label} L/s never in alarm")
        if seg.weir == "none" and raised[s]:
            tally.problem(f"free-flow segment at {seg.label} L/s raised {raised[s]} alarms")


def _check_summary(records, tally) -> None:
    s = records.summary
    frames = sum(len(v) for v in records.frames.values())
    expected = {
        "frames": frames,
        "diagnostics": len(records.diagnostics),
        "alarms": sum(1 for _, e in records.alarms if e == "raised"),
        "clears": sum(1 for _, e in records.alarms if e == "cleared"),
    }
    if s is None or any(number(s.get(k)) != v for k, v in expected.items()):
        tally.problem(f"summary {s} disagrees with the records {expected}")


def expected_k_cal(rows) -> float:
    """Mean q_ref/q_meas over the earliest segment of each flow label."""
    firsts = {}
    for seg_id, label, q_ref, q_meas in rows:
        if label not in firsts or seg_id < firsts[label][0]:
            firsts[label] = (seg_id, q_ref, q_meas)
    ratios = [q_ref / q_meas for _, q_ref, q_meas in firsts.values()]
    return sum(ratios) / len(ratios)


def check_calibrate(text: str, rows, tally: Tally) -> float | None:
    """The k_cal line; returns the reported factor if readable."""
    key, _, value = text.strip().partition("=")
    k = number(value)
    if key.strip() != "calibration.factor" or k is None:
        tally.problem(f"calibrate printed {text.strip()!r}")
        return None
    want = expected_k_cal(rows)
    if abs(k - want) > 1e-12 * abs(want):
        tally.problem(f"calibration.factor {k!r}, expected {want!r}")
    return k


def check_metrics(text: str, rows, k_cal: float, tally: Tally) -> None:
    """Per-rate mean percent error after k_cal, FWME and max |E|."""
    groups = {}
    for _, label, q_ref, q_meas in rows:
        groups.setdefault(label, []).append((q_ref, 100.0 * (k_cal * q_meas - q_ref) / q_ref))
    table = sorted(
        (statistics.fmean(q for q, _ in g), statistics.fmean(e for _, e in g), label)
        for label, g in groups.items()
    )
    q_max = max(q for q, _, _ in table)
    fwme = sum(q / q_max * e for q, e, _ in table) / sum(q / q_max for q, _, _ in table)
    want = [[label, q, e] for q, e, label in table]
    want += [["FWME", fwme], ["max|E|", max(abs(e) for _, e, _ in table)]]
    got = [line.split() for line in text.strip().splitlines()[1:]]
    if len(got) != len(want):
        tally.problem(f"metrics printed {len(got)} rows, expected {len(want)}")
        return
    for g, w in zip(got, want):
        values = [number(x) for x in g[1:]]
        if g[0] != w[0] or None in values or any(
            abs(a - b) > TABLE_TOL for a, b in zip(values, w[1:])
        ):
            tally.problem(f"metrics row {g} differs from {w}")


def check_simulate(text: str, point: SimPoint, table, tally: Tally) -> None:
    """One operation per point: read with plain float(), decode, compare."""
    tally.attempted += 1
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if not lines or lines[0] != "timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm" \
            or len(rows) != 2 * point.frames or any(len(r) != 5 for r in rows):
        tally.fail(f"simulate {point}: malformed output ({len(rows)} rows)", wrong=True)
        return
    try:
        parsed = [(float(r[0]), r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows]
    except ValueError as exc:
        tally.fail(f"simulate {point}: unreadable value ({exc})", wrong=False)
        return
    level = reference.operating_level_mm(point.flow_lps, point.weir)
    fpcf = reference.interpolate(table, level)
    flows = []
    for k in range(point.frames):
        (ts, a, ua, da, ha), (ts_b, b, ub, db, hb) = parsed[2 * k], parsed[2 * k + 1]
        if (a, b) != ("a", "b") or ts != ts_b or ts != float(k) or ha != hb \
                or abs(ha - level) > 1e-9 * level:
            tally.fail(f"simulate {point}: frame {k} layout or level wrong", wrong=True)
            return
        v = 0.5 * (reference.line_velocity(ua, da) + reference.line_velocity(ub, db))
        flows.append(reference.flow_lps(fpcf, v, ha))
    truth = point.flow_lps
    if point.noise_ns == 0.0:
        worst = max(abs(q - truth) for q in flows) / truth
        if worst > SIM_FLOW_REL_TOL:
            tally.fail(f"simulate {point}: decoded flow off by {worst:.3g}", wrong=True)
            return
        tally.flow_error(flows[0], truth)
    else:
        mean = statistics.fmean(flows)
        allowed = 5.0 * statistics.stdev(flows) / math.sqrt(len(flows)) + SIM_FLOW_REL_TOL * truth
        if abs(mean - truth) > allowed:
            tally.fail(f"simulate {point}: mean decoded flow {mean!r} vs {truth!r}", wrong=True)
