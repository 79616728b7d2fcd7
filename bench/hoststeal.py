"""Time the hypervisor has taken the CPUs of this machine away, so far.

On a virtual machine that shares its host, a vCPU that wants to run is
sometimes kept waiting while the host runs other guests; Linux counts
that wait as ``steal`` in the first line of /proc/stat.  The benchmark
is one process at a time on an otherwise idle machine, so the steal that
accrues during an operation is time the operation lost to other guests,
and the benchmark takes it out of the operation's times.
"""

import os

_TICK = os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """Steal time of all CPUs since boot, 0.0 where it is not counted."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / _TICK
    except (OSError, IndexError, ValueError):
        return 0.0
