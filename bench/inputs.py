"""Seeded benchmark inputs, built with the program's own simulator.

Frame logs are written as plain decimal CSV in the program's frame
format, with the ground truth kept beside them. The program's
``write_frame_rows`` is not used: under numpy 2 it writes noisy transit
times as ``np.float64(...)``, and every noisy frame would then reach
``process`` as a diagnostic. The ``simulate`` workload still exercises
that writer.
"""

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WEIRS = ("none", "weir1", "weir2")
FRAME_INTERVAL_S = 0.5
# Shape of the logs. The stream log is long enough that per-frame work
# dominates a `process` run; the derive log only has to exercise the
# derived polynomial, since tabulation dominates that run.
STREAM_CYCLES = 4
STREAM_FRAMES_PER_SEGMENT = 1600
STREAM_NOISE_NS = 1.0
STREAM_BAD_SHARE = 0.005
DERIVE_CYCLES = 1
DERIVE_FRAMES_PER_SEGMENT = 1200
DERIVE_NOISE_NS = 1.0
# simulate: one command per point, all weir x noise combinations, flows
# stratified over 2-6 L/s so that every seed spreads its levels alike.
SIMULATE_POINTS = 6
SIMULATE_FRAMES = 300
SIMULATE_NOISE_NS = 0.5


@dataclass
class Segment:
    """A run of frames at one operating point (flow in L/s)."""

    flow_lps: float
    weir: str
    first: int
    count: int

    @property
    def label(self) -> str:
        return f"{self.flow_lps:.3f}"


@dataclass
class FrameLog:
    """A written frame CSV plus what the benchmark knows about it.

    ``frames[i]`` is ``(timestamp_s, level_mm, ((chord, t_up_ns, t_down_ns), ...))``
    with the values exactly as written; ``bad`` holds the indices of
    frames given a non-finite transit time.
    """

    path: Path
    frames: list = field(default_factory=list)
    segments: list = field(default_factory=list)
    bad: set = field(default_factory=set)

    def line_to_frame(self) -> dict[int, int]:
        """Frame index of every data line (line 1 is the header)."""
        lines = {}
        line_no = 2
        for index, (_, _, readings) in enumerate(self.frames):
            for _ in readings:
                lines[line_no] = index
                line_no += 1
        return lines


def write_frame_log(path: Path, seed: int, cycles: int, frames_per_segment: int,
                    noise_ns: float, bad_share: float, config) -> FrameLog:
    """Cycles of none/weir1/weir2 segments at seeded flows in 2-6 L/s."""
    from partialflow.simulator import ScenarioSpec, WeirMode, baseline_level_mm, generate

    rng = random.Random(seed)
    log = FrameLog(path=path)
    labels = set()
    for cycle in range(cycles):
        flow = round(rng.uniform(2.0, 6.0), 3)
        while f"{flow:.3f}" in labels:
            flow = round(rng.uniform(2.0, 6.0), 3)
        labels.add(f"{flow:.3f}")
        for weir in WEIRS:
            scenario = ScenarioSpec(
                flow_lps=flow,
                level_mm=baseline_level_mm(flow),
                weir=WeirMode(weir),
                noise_sigma_s=noise_ns * 1e-9,
                seed=rng.randrange(1 << 30),
                frame_count=frames_per_segment,
            )
            frames = generate(scenario, config.chords, config.pipe, config.params, config.quad)
            first = len(log.frames)
            for k, frame in enumerate(frames):
                ts = (first + k) * FRAME_INTERVAL_S
                readings = tuple(
                    (r.chord_id, float(r.t_up_s) * 1e9, float(r.t_down_s) * 1e9)
                    for r in frame.readings
                )
                log.frames.append((ts, float(frame.level_mm), readings))
            log.segments.append(Segment(flow, weir, first, len(frames)))

    # Dropouts: a small share of frames get one NaN or infinite transit time.
    n_bad = round(bad_share * len(log.frames))
    for index in sorted(rng.sample(range(len(log.frames)), n_bad)):
        ts, level, readings = log.frames[index]
        which = rng.randrange(len(readings))
        slot = 1 + rng.randrange(2)
        value = float(rng.choice(("nan", "inf")))
        reading = list(readings[which])
        reading[slot] = value
        readings = readings[:which] + (tuple(reading),) + readings[which + 1:]
        log.frames[index] = (ts, level, readings)
        log.bad.add(index)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp_s,chord_id,t_up_ns,t_down_ns,level_mm\n")
        for ts, level, readings in log.frames:
            for chord, t_up, t_down in readings:
                fh.write(f"{ts!r},{chord},{t_up!r},{t_down!r},{level!r}\n")
    return log


def stream_log(path: Path, seed: int, config) -> FrameLog:
    return write_frame_log(path, seed, STREAM_CYCLES, STREAM_FRAMES_PER_SEGMENT,
                           STREAM_NOISE_NS, STREAM_BAD_SHARE, config)


def derive_log(path: Path, seed: int, config) -> FrameLog:
    return write_frame_log(path, seed, DERIVE_CYCLES, DERIVE_FRAMES_PER_SEGMENT,
                           DERIVE_NOISE_NS, 0.0, config)


@dataclass(frozen=True)
class SimPoint:
    flow_lps: float
    weir: str
    noise_ns: float
    seed: int
    frames: int

    def argv(self) -> list[str]:
        return [
            "simulate", "--flow-lps", repr(self.flow_lps), "--weir", self.weir,
            "--frames", str(self.frames), "--noise-ns", repr(self.noise_ns),
            "--seed", str(self.seed),
        ]


def simulate_points(seed: int) -> list[SimPoint]:
    """Point i draws its flow from the i-th of equal bins over 2-6 L/s."""
    rng = random.Random(seed)
    width = 4.0 / SIMULATE_POINTS
    return [
        SimPoint(
            flow_lps=round(2.0 + width * (i + rng.random()), 3),
            weir=WEIRS[i % 3],
            noise_ns=SIMULATE_NOISE_NS if i % 2 else 0.0,
            seed=rng.randrange(1 << 30),
            frames=SIMULATE_FRAMES,
        )
        for i in range(SIMULATE_POINTS)
    ]


def is_valid_reading(t_up: float, t_down: float) -> bool:
    return math.isfinite(t_up) and math.isfinite(t_down) and t_up > 0 and t_down > 0
