"""Runs the benchmark's CLI commands, one at a time, and times each one.

Reads one JSON request per line on stdin, ``{"argv": [...], "out": path,
"err": path}``, runs the command with stdout to a pipe and stderr to
``err``, copies stdout to ``out``, and answers with one JSON line.

This runs as its own small process, using only the standard library, for
the sake of ``rss_kb``: a child's ``ru_maxrss`` from ``wait4`` also covers
the memory of the process that spawned it, up to the ``exec``. Spawned
from the benchmark's main process, which holds inputs and parsed outputs,
every child would report that process's size.
"""

import json
import os
import subprocess
import sys
import time


def thread_cpu_s(pid: int) -> float | None:
    """CPU time of the child's main thread so far, in ns precision.

    Read from /proc/<pid>/schedstat, which stays readable until the child
    is reaped. Time the host takes the CPU away (steal) is not counted.
    """
    try:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
            return int(fh.read().split()[0]) * 1e-9
    except (OSError, ValueError, IndexError):
        return None


def run(argv: list, out_path: str, err_path: str) -> dict:
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        try:
            t_first = None
            # (arrival time, main-thread CPU, frame records the chunk completes)
            frame_chunks = []
            tail = b""
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                now = time.perf_counter()
                if t_first is None:
                    t_first = now
                out.write(chunk)
                lines = (tail + chunk).split(b"\n")
                tail = lines.pop()
                frames = sum(1 for line in lines if line.startswith(b"frame "))
                if frames:
                    frame_chunks.append((now, thread_cpu_s(proc.pid), frames))
            # This child's own peak RSS; RUSAGE_CHILDREN would be the
            # largest over all children so far.
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    # Frame records per second, of wall time and of main-thread CPU time,
    # between the chunk holding the first record and the one holding the
    # last; records in the first chunk start the clock.
    frame_rate = frame_cpu_rate = None
    if len(frame_chunks) > 1:
        (t0, cpu0, _), (t1, cpu1, _) = frame_chunks[0], frame_chunks[-1]
        later = sum(n for _, _, n in frame_chunks[1:])
        frame_rate = later / (t1 - t0)
        if cpu0 is not None and cpu1 is not None and cpu1 > cpu0:
            frame_cpu_rate = later / (cpu1 - cpu0)
    return {
        "returncode": proc.returncode,
        "t_spawn": t_spawn,
        "t_first": t_first,
        "t_exit": t_exit,
        "rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "frame_rate": frame_rate,
        "frame_cpu_rate": frame_cpu_rate,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        result = run(request["argv"], request["out"], request["err"])
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
