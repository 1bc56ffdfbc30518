#!/usr/bin/env python3
"""A bench's artifact reports its own peak RSS, not its launcher's.

    peak_rss_check.py BENCH ARTIFACT

Touches 64 MB in this process, then runs `BENCH --timing --json ARTIFACT`
and requires the artifact's timing.peak_rss_bytes to be positive and
under 32 MB. getrusage's ru_maxrss survives exec on Linux, so a bench that
read it would report at least this launcher's 64 MB.
"""

import json
import resource
import subprocess
import sys

MB = 1 << 20


def main():
    bench, artifact = sys.argv[1], sys.argv[2]
    ballast = bytearray(b"\x01") * (64 * MB)  # written, so resident
    launcher_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if launcher_kb * 1024 < 64 * MB:
        sys.exit(f"launcher peak is only {launcher_kb} kB; the check proves nothing")
    subprocess.run([bench, "--timing", "--json", artifact], stdout=subprocess.DEVNULL,
                   check=True)
    with open(artifact) as f:
        peak = json.load(f)["timing"]["peak_rss_bytes"]
    print(f"launcher peak {launcher_kb / 1024:.1f} MB, bench peak {peak / MB:.1f} MB")
    del ballast
    return 0 if 0 < peak < 32 * MB else 1


if __name__ == "__main__":
    sys.exit(main())
