"""Fixed reference task, independent of the program: the benchmark's yardstick.

Starts an interpreter, imports numpy, then runs a pure-Python loop and a
loop of small-array numpy calls, the same kinds of work as the CLI's
start-up, frame path and integrands. It takes about 0.4 s of CPU on
2 vCPUs, half of it the import.

On a shared host the same command can take 25-50% more or less CPU time
for minutes at a time, from one run of the benchmark to the next and
within one. The benchmark times this task between passes and divides each
pass's CPU time by the task's CPU time on either side of it (see
``cpu_ref`` and ``ops_per_cpu_ref`` in run.py).
"""

import numpy as np

total = 0.0
for i in range(300_000):
    total += (i % 7) * 0.5
values = np.linspace(0.0, 1.0, 64)
for _ in range(15_000):
    values = np.sqrt(values * values + 1.0) - 1.0
print(total + float(values.sum()))
