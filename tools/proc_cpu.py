"""Sum the CPU a process tree spends, per role, by polling ``/proc``.

Made for ``servebench``: start a run, then sample its process tree until
the run exits.  Each process keeps the last ``utime + stime`` seen in
``/proc/<pid>/stat`` every ``POLL_S`` seconds (so one loses at most its
last poll), and the totals are summed per role:

* ``client`` — the root process (``servebench/run.py``, which is the
  load generator);
* ``router`` — a ``repro fleet`` process;
* ``replica`` — a child of the router (``repro serve --join ...``);
* ``worker`` — a child of a replica (its forked pool workers);
* ``other`` — anything else below the root (reference runs, a bare
  ``repro serve``).

Nothing is traced or changed: the tool only reads ``/proc``.

Usage::

    python3 servebench/run.py --workload fleet-cold --seed S --seconds 30 \\
        --trace 0 > run.txt &
    python3 tools/proc_cpu.py $!

It prints one JSON object of CPU seconds per role.  Divide by the run's
solution count (``sols_per_s ... (n=<count>)`` in ``run.txt``) for CPU
per delivered solution.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List

ROLES = ("client", "router", "replica", "worker", "other")
POLL_S = 0.05


def _stat(pid: int):
    """``(ppid, utime + stime in ticks)`` of ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        data = handle.read()
    fields = data[data.rindex(")") + 2 :].split()
    return int(fields[1]), int(fields[11]) + int(fields[12])


def _cmdline(pid: int) -> str:
    with open(f"/proc/{pid}/cmdline", "rb") as handle:
        return handle.read().replace(b"\0", b" ").decode(errors="replace")


def sample(root: int) -> Dict[int, list]:
    """``pid -> [ppid, cmdline, ticks]`` for every process seen until
    ``root`` exits."""
    seen: Dict[int, list] = {}
    while os.path.exists(f"/proc/{root}"):
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            pid = int(name)
            try:
                ppid, ticks = _stat(pid)
                if pid in seen:
                    seen[pid][2] = max(seen[pid][2], ticks)
                else:
                    seen[pid] = [ppid, _cmdline(pid), ticks]
            except (OSError, ValueError, IndexError):
                pass  # gone between listdir and read
        time.sleep(POLL_S)
    return seen


def roles(root: int, seen: Dict[int, list]) -> Dict[str, float]:
    """CPU seconds per role of the processes below ``root``."""

    def ancestors(pid: int) -> List[int]:
        chain: List[int] = []
        while pid in seen and pid not in chain:
            chain.append(pid)
            pid = seen[pid][0]
        return chain

    def is_router(pid: int) -> bool:
        return pid in seen and "repro fleet" in seen[pid][1]

    tick = os.sysconf("SC_CLK_TCK")
    totals = dict.fromkeys(ROLES, 0.0)
    for pid, (ppid, cmd, ticks) in seen.items():
        if pid != root and root not in ancestors(pid):
            continue
        if pid == root:
            role = "client"
        elif "repro fleet" in cmd:
            role = "router"
        elif is_router(ppid):
            role = "replica"
        elif ppid in seen and is_router(seen[ppid][0]):
            role = "worker"
        else:
            role = "other"
        totals[role] += ticks / tick
    return totals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pid", type=int, help="root of the process tree")
    args = parser.parse_args()
    print(json.dumps(roles(args.pid, sample(args.pid))))


if __name__ == "__main__":
    main()
