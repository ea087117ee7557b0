#!/usr/bin/env python3
"""Build the ledger from source and run it: the benchmark command.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds bench/ledger/ledger.exe and the
kolaoptd daemon with dune (its shared cache disabled, so every file it
writes stays under _build/), then runs the ledger with the given
arguments.  The ledger's standard output passes through unchanged; its
last line is the JSON result.  The exit code is the ledger's, or non-zero
when the checkout cannot be built.
"""

import os
import signal
import subprocess
import sys

LEDGER = os.path.join("_build", "default", "bench", "ledger", "ledger.exe")
DAEMON = os.path.join("_build", "default", "bin", "kolaoptd.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; on timeout kill the whole group
    (the ledger's daemon child included) and wait for it."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {argv[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the root of a kola checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run_group(["dune", "build", "--root", ".", "./bench/ledger/ledger.exe",
                      "./bin/kolaoptd.exe"],
                     BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return code
    sys.stdout.flush()
    return run_group([os.path.join(".", LEDGER), *sys.argv[1:], "--daemon", DAEMON],
                     RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
