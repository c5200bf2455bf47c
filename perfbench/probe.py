"""Fresh-process probes, run as children of the benchmark.

    probe.py setup SRC CONFIG     time `import damped_midpoint` + cli.load_config,
                                  then the reference kernel in the same process
    probe.py run SRC ARGV_JSON    one cli.main(argv) call, then peak RSS

Each prints one JSON object. SRC is the source tree to import from.

Peak RSS is the child's own high-water mark, VmHWM in /proc/self/status.
The child's ``ru_maxrss`` is not used where VmHWM exists: Linux carries
into it the high-water mark of the process that spawned the child, here
the benchmark itself, so small workloads would report the parent's peak.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(mode: str, src: str, arg: str) -> int:
    sys.path.insert(0, src)
    start = time.perf_counter()
    import damped_midpoint
    from damped_midpoint import cli
    if mode == "setup":
        cli.load_config(arg)
        setup_s = time.perf_counter() - start
        import reference  # after the timed region: it imports numpy itself
        result = {"setup_s": setup_s, "reference_s": reference.timed(3)}
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(json.loads(arg))
        result = {"rc": rc, "peak_rss_mib": _peak_rss_kib() / 1024.0}
    if not Path(damped_midpoint.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.stderr.write(f"imported {damped_midpoint.__file__}, not from {src}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
