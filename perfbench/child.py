"""Child-process entry points of the benchmark.

    python perfbench/child.py setup kernel|balls
        Import the toolkit and build the workload's models and transversals,
        then exit; the parent times the whole process as set-up time.
    python perfbench/child.py job JOBFILE SPANFILE
        Run one job through ``gogtools.cli.main`` with spans installed and
        write the spans to SPANFILE; exits with the job's exit code.
"""

from __future__ import annotations

import sys


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        import workloads

        {"kernel": workloads.kernel_models,
         "balls": workloads.balls_models}[argv[1]]()
        return 0
    if argv[:1] == ["job"] and len(argv) == 3:
        import gogtools.cli
        import tracer

        tr = tracer.Tracer()
        tr.install()
        try:
            code = gogtools.cli.main([argv[1]])
        finally:
            tr.remove()
            tracer.write(argv[2], tr)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
