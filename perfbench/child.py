"""One benchmark sample in a fresh interpreter.

    python3 child.py SRC_DIR RUN_ID SPANS_PATH [CLI ARGS...]

Times `import plgee.cli` (setup), then one `plgee.cli.main(CLI ARGS)` call,
then twice the fixed reference work of `reference.py`.
With no CLI ARGS it skips the call.  SPANS_PATH `-` runs untraced; any other
value installs the span tracer and writes its spans there at the end.
Prints one JSON line: setup_s, wall_s, exit, maxrss_kb (peak resident set
of the import and the call), ref_s (mean of the two reference timings).
"""

import sys
import time


def peak_rss_kb():
    """Peak resident set of this program.  Linux's ru_maxrss also counts the
    parent's pages this process had before exec, so VmHWM is read first."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    src, run_id, spans_path, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import plgee.cli
    out = {"setup_s": time.perf_counter() - t0}

    import json

    if cli_args:
        tracer = None
        if spans_path != "-":
            from spans import Tracer
            tracer = Tracer(run_id)
            tracer.install()
        t1 = time.perf_counter()
        code = plgee.cli.main(cli_args)
        out["wall_s"] = time.perf_counter() - t1
        out["exit"] = code
        if tracer is not None:
            tracer.uninstall()
            tracer.write(spans_path)
    out["maxrss_kb"] = peak_rss_kb()
    # after the peak is read, so the reference's arrays do not count
    from reference import reference_s
    out["ref_s"] = 0.5 * (reference_s() + reference_s())
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
