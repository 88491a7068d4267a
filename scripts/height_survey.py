#!/usr/bin/env python3
"""Survey ``spectrum`` at n=64 as the height of the parameters grows.

Each op runs as its own ``python -m fockspec`` process on this checkout's
``src/`` and prints one line: its exit code, its wall time, the size of its
output in bytes and the first 12 hex digits of the output's sha256, then
the op.  The ops are the exactly solvable rows of ROADMAP item 3, Lame(2,
1/p, 64) and sextic(1/p, 7/3, 64) at h = 10, 20 and 40, Lame(p/3, 1, 64)
at h = 10 and 20, Lame(1000000007/3, 1, 64), Lame(2, 1, 64) and sextic(1,
1, 64), with p = 2^h + 1.  An op that runs past the deadline counts as a
failure.  The script exits 1 if any op exits other than 0.

    python3 scripts/height_survey.py
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DEADLINE_S = 120


def _spectrum(*args):
    return ["spectrum", *args, "--n", "64"]


def _catalog(op, **binds):
    argv = ["--op", op]
    for name, value in binds.items():
        argv += ["--bind", f"{name}={value}"]
    return _spectrum(*argv, "--bind", "n=64")


def ops():
    yield _spectrum("--expr", "(b*a - 32)^2*(b*a - 1000003/7)")
    yield _spectrum("--expr", "(b*a - 32)^2*(b*a - 1000003/7) + 3/1000033*b*a")
    yield _spectrum("--expr", "b*a*b*a*b*a + 1/1000003*b*a")
    for h in (10, 20, 40):
        p = 2**h + 1
        yield _catalog("lame", m=2, d=f"1/{p}")
        yield _catalog("sextic", alpha=f"1/{p}", beta="7/3")
    for h in (10, 20):
        yield _catalog("lame", m=f"{2**h + 1}/3", d=1)
    yield _catalog("lame", m="1000000007/3", d=1)
    yield _catalog("lame", m=2, d=1)
    yield _catalog("sextic", alpha=1, beta=1)


def run(argv):
    """Exit code (None past the deadline), wall seconds and output bytes."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "fockspec", *argv], env=env,
                              capture_output=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, b""
    return done.returncode, time.perf_counter() - start, done.stdout


def main():
    failed = 0
    for argv in ops():
        code, wall, out = run(argv)
        failed += code != 0
        shown = "timeout" if code is None else code
        digest = hashlib.sha256(out).hexdigest()[:12]
        line = f"exit={shown}  {wall:7.2f} s  {len(out):>9} bytes  {digest}  {' '.join(argv)}"
        print(line, flush=True)
    print(f"{failed} of the ops failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
