#!/usr/bin/env python3
"""Run the full evaluation: all seven DaCapo-shaped benchmarks under all
four compiler configurations, printing Figure 7, Figure 8, and Table 3.

This is the long-running example (a few minutes): it performs the same
runs the benchmark suite performs.  Pass benchmark names to restrict it,
e.g.  python examples/dacapo_sweep.py xalan hsqldb

Options:
  --workers N     compute independent cells on an N-process pool (the
                  merge order is deterministic, so the printed tables are
                  byte-identical to a serial run)
  --disk-cache    persist/reuse per-cell results in .repro-cache, keyed
                  by a content hash of the source tree and the cell
                  config (equivalent to REPRO_DISK_CACHE=1)
  --journal PATH  append completed cells to a crash-consistent journal
                  at PATH, so an interrupted sweep resumes where it left
                  off on the next run

Cells run through the fault-tolerant sweep supervisor: crashed, hung, or
flaky cells are retried with backoff, and a quarantined cell degrades to
an on-demand serial recompute instead of failing the sweep.  The
supervisor lifecycle table is printed after the figures.
"""

import os
import sys

from repro.harness import (
    SupervisorConfig,
    figure7,
    figure8,
    prewarm_figures,
    render,
    render_supervisor,
    table3,
)


def main():
    args = sys.argv[1:]
    workers = None
    if "--workers" in args:
        at = args.index("--workers")
        workers = int(args[at + 1])
        del args[at:at + 2]
    if "--disk-cache" in args:
        args.remove("--disk-cache")
        os.environ["REPRO_DISK_CACHE"] = "1"
    journal = None
    if "--journal" in args:
        at = args.index("--journal")
        journal = args[at + 1]
        del args[at:at + 2]
    benches = args or None

    config = SupervisorConfig(workers=workers, journal_path=journal)
    outcome = prewarm_figures(benches, supervisor=config)
    print(f"# {outcome.completed + outcome.resumed} cells computed "
          f"({'serial' if not workers or workers <= 1 else f'{workers} workers'})")
    for builder in (figure7, figure8, table3):
        data = builder(benches)
        print()
        print(render(data))
    print()
    print(render_supervisor(outcome))


if __name__ == "__main__":
    main()
