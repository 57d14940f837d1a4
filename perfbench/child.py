"""Run one pass of a workload's job batch in a fresh interpreter.

    python3 perfbench/child.py JOBS_JSON RESULT_JSON [TRACE]

JOBS_JSON is a list of [command, name, config_path, out_dir]. Each job is
one call of `esgain.cli.main`, one after another (a closed loop with one
client). The timed region starts after `esgain.cli` is imported. With a
third argument the layers are traced and the trace goes into the result.
"""

import json
import resource
import sys
from time import perf_counter


def main() -> int:
    jobs_path, result_path = sys.argv[1], sys.argv[2]
    traced = len(sys.argv) > 3
    import esgain.cli as cli

    tracer = None
    if traced:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    records = []
    start = perf_counter()
    for command, name, config, out_dir in jobs:
        t0 = perf_counter()
        error = None
        try:
            code = cli.main([command, "--config", config, "--out", out_dir])
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed pass
            code, error = None, repr(exc)
        records.append({"name": name, "exit_code": code, "error": error,
                        "seconds": perf_counter() - t0})
    wall = perf_counter() - start
    result = {"esgain_file": cli.__file__, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "jobs": records}
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
