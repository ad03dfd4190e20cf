"""Host the served system in its own process tree: a Gateway over a fleet.

The benchmark starts this script as a child process so that the system's
CPU is separate from the load generator's:

    launcher (this process: the Gateway event loop)
      └─ backend (a NetServer parent, spawned by BackendFleet)
           └─ worker (the NetServer worker running the micro-batching Server)

Usage (the benchmark does this; it is also handy by hand):

    PYTHONPATH=src python3 perfbench/launcher.py --artifact model.npz

Once serving, one JSON line goes to stdout with the gateway and backend
addresses and the set-up timings.  The launcher then waits for a ``stop``
line or end of input on stdin, or for SIGTERM/SIGINT, and in every case
closes the gateway and the fleet before it exits, so no backend or worker
outlives it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time


class _Stop(Exception):
    """Raised from the signal handler to leave the wait for stdin."""


def _raise_stop(signum, frame):
    raise _Stop(signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True,
                        help="compiled-model .npz every backend loads")
    args = parser.parse_args(argv)

    # Installed before anything is spawned: a SIGTERM at any point below
    # still runs the finally block that closes what was started.
    signal.signal(signal.SIGTERM, _raise_stop)
    signal.signal(signal.SIGINT, _raise_stop)

    from repro.runtime.cluster import BackendFleet, Gateway

    fleet = gateway = None
    try:
        # Assign before start(): a signal during start() must still find
        # the half-started object to close.
        start = time.perf_counter()
        fleet = BackendFleet(artifact_path=args.artifact, count=1, workers=1)
        fleet.start()
        spawned = time.perf_counter()
        gateway = Gateway(fleet.keys)
        gateway.start()
        ready = time.perf_counter()
        print(json.dumps({
            "gateway": list(gateway.address),
            "backends": [list(address) for address in fleet.addresses],
            "spawn_s": spawned - start,
            "gateway_s": ready - spawned,
        }), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    except _Stop:
        pass
    finally:
        # Ignore further signals while closing: a second SIGTERM must not
        # abort the fleet shutdown half way.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if gateway is not None:
            gateway.close()
        if fleet is not None:
            fleet.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
