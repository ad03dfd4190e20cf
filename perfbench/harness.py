"""Machinery shared by the perfbench workloads.

* :class:`OutputGate` — every reply is compared byte for byte with its
  in-process oracle; a mismatch, error or timeout is a counted failure.
* :class:`Tracer` — per-name call counts and seconds, recorded from the
  benchmark's own files around calls into each layer, plus work counters.
* :class:`ServedSystem` — starts ``launcher.py`` (Gateway over a 1-backend,
  1-worker fleet) as a separate process tree, reads per-process CPU from
  ``/proc``, and on stop runs the teardown guard: no process, ``/dev/shm``
  segment or listening port of the run may survive.
* :func:`host_speed` — the host's speed right now against a reference,
  from a fixed pure-Python loop; the end-to-end times are scaled by it.
* :func:`repeated_setup` — set-up repeated, each timing's median kept.
* Small ``/proc`` readers and the environment record.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Failure descriptions a gate keeps for the report.
MAX_EXAMPLES = 5
#: Complete set-ups per run; setup_s and setup.* are their medians.
SETUP_REPEATS = 7
#: Longest wait for the launcher to serve, and for it to stop.
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Output gate.
# ----------------------------------------------------------------------


class OutputGate:
    """Counts ops and their failures against in-process oracles.

    Thread-safe: the generator's connection threads report into one gate.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.attempted = 0
        self.mismatches = 0
        self.errors = 0
        self.leaks = 0
        self.examples: list[str] = []

    @property
    def failed(self) -> int:
        return self.mismatches + self.errors + self.leaks

    def _note(self, message: str) -> None:  # holds-lock: _lock
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(message)

    def check(self, label: str, got, expected) -> bool:
        """One op's reply against its oracle, byte for byte (dtype, shape
        and every byte of the values)."""
        got = np.asarray(got)
        expected = np.asarray(expected)
        same = (
            got.dtype == expected.dtype
            and got.shape == expected.shape
            and np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(expected).tobytes()
        )
        with self._lock:
            self.attempted += 1
            if not same:
                self.mismatches += 1
                self._note(f"{label}: reply differs from the oracle")
        return same

    def error(self, label: str, error: BaseException) -> None:
        """One op that raised or timed out instead of replying."""
        with self._lock:
            self.attempted += 1
            self.errors += 1
            self._note(f"{label}: {type(error).__name__}: {error}")

    def leak(self, description: str) -> None:
        """Something of the run that outlived its teardown."""
        with self._lock:
            self.leaks += 1
            self._note(f"leak: {description}")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "attempted": self.attempted,
                "mismatches": self.mismatches,
                "errors": self.errors,
                "leaks": self.leaks,
                "examples": list(self.examples),
            }


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------


class Tracer:
    """Per-name ``(calls, seconds)`` accumulators plus named counters of
    work done (rows, flops, bytes) at the same boundaries."""

    def __init__(self):
        self._lock = threading.Lock()
        self._calls: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self._calls.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def count(self, amounts: dict[str, float]) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counters[key] = self.counters.get(key, 0.0) + value

    def totals(self, name: str) -> tuple[int, float]:
        """``(calls, total seconds)`` recorded under ``name``."""
        with self._lock:
            calls, seconds = self._calls.get(name, (0, 0.0))
        return calls, seconds


@contextmanager
def wrapped(owner, attribute: str, tracer: Tracer, name: str, measure=None):
    """Temporarily wrap ``owner.attribute`` so each call adds its time to
    ``tracer`` under ``name`` (and, with ``measure(*args)``, counts the work
    it was handed); restores the original on exit."""
    own = attribute in vars(owner)
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.add(name, time.perf_counter() - start)
            if measure is not None:
                tracer.count(measure(*args))

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        if own:
            setattr(owner, attribute, original)
        else:  # the attribute was inherited: uncover the base's again
            delattr(owner, attribute)


# ----------------------------------------------------------------------
# Statistics and host speed.
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Median time of one :func:`_probe_loop` on the reference host (2 vCPUs
#: of a shared x86-64 host, CPython 3.11).  Times scaled by
#: :func:`host_speed` are times on that host at that speed.
REFERENCE_PROBE_S = 0.70e-3
PROBE_REPEATS = 15


def _probe_loop() -> int:
    total = 0
    for i in range(10_000):
        total += i * i
    return total


def host_speed() -> float:
    """How fast the host runs right now against the reference: the
    reference time of a fixed pure-Python loop over its median time now
    (above 1 when faster).

    A shared host's speed drifts by a third and more over seconds to
    minutes, and every workload's times drift with it.  Measured between
    slices of a workload, with the workload paused, the loop's time tracks
    that drift (over a 40-s run it cuts the run-to-run spread of the
    workloads' times by three to four); a time multiplied by the speed
    around it is the time at reference speed.  The loop runs no code of
    the repository, so no change to the program moves it.
    """
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_loop()
        times.append(time.perf_counter() - start)
    return REFERENCE_PROBE_S / statistics.median(times)


def bracketed(speeds: list[float]) -> list[float]:
    """The speed during each interval between probes: the mean of the
    probes before and after it."""
    return [(a + b) / 2.0 for a, b in zip(speeds, speeds[1:])]


# ----------------------------------------------------------------------
# Set-up and work accounting shared by the workloads.
# ----------------------------------------------------------------------


def repeated_setup(once):
    """Call ``once(repeat)`` ``SETUP_REPEATS`` times; each call returns
    ``(result, timings)`` with the whole set-up's wall time as
    ``total_s``.  ``total_s`` loses the CPU time the hypervisor stole
    during its repeat (set-up runs one step at a time, so each stolen
    second is a second of waiting), and every timing is scaled to
    reference speed by the median of the host speeds probed before each
    repeat and after the last (one probe jitters with the processes each
    repeat starts and stops).  Returns the last result and the median of
    each timing over the repeats, with every repeat's raw timings under
    ``repeats``, the probes under ``speeds`` and the stolen seconds under
    ``stolen_s``."""
    records, stolen = [], []
    speeds = [host_speed()]
    result = None
    for repeat in range(SETUP_REPEATS):
        ticks = host_ticks()
        result, timings = once(repeat)
        stolen.append((host_ticks()[1] - ticks[1]) / CLK_TCK)
        records.append(timings)
        speeds.append(host_speed())
    speed = statistics.median(speeds)
    scaled = [
        {key: value * speed
         for key, value in dict(record,
                                total_s=record["total_s"] - lost).items()}
        for record, lost in zip(records, stolen)
    ]
    breakdown = {
        key: statistics.median(record[key] for record in scaled)
        for key in records[0]
    }
    breakdown["repeats"] = records
    breakdown["speeds"] = speeds
    breakdown["stolen_s"] = stolen
    return result, breakdown


def setup_metrics(setup: dict) -> dict:
    """The ``setup.*`` per-layer metrics of a :func:`repeated_setup`."""
    return {
        "setup.compile_s": (setup["compile_s"], "s"),
        "setup.artifact_s": (setup["artifact_s"], "s"),
        "setup.spawn_s": (setup["spawn_s"], "s"),
        "setup.gateway_s": (setup["gateway_s"], "s"),
        "setup.first_op_ms": (setup["first_op_ms"], "ms"),
    }


def spectral_work(weights, x, bits) -> dict:
    """MAC flops and bytes of one spectral product, from tensor shapes:
    a complex multiply-add is 8 real flops per (row, out block, in block,
    bin); bytes are the complex128 weight spectra read plus the input and
    output spectra, each touched once."""
    rows = int(np.prod(np.shape(x)[:-1]))
    p, q, bins = weights.spectra.shape
    return {
        "mac_flop": 8.0 * rows * p * q * bins,
        "bytes": 16.0 * (p * q * bins + rows * q * bins + rows * p * bins),
    }


# ----------------------------------------------------------------------
# /proc readers.
# ----------------------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # The command name may hold spaces and parentheses; fields resume
    # after the last ')'.  Index 0 below is field 3 (state).
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of ``pid`` so far (0 if gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def start_ticks(pid: int) -> int | None:
    fields = _stat_fields(pid)
    return None if fields is None else int(fields[19])


def _alive(pid: int, start_ticks: int | None) -> bool:
    """``pid`` is the same process as when seen, and not a zombie."""
    fields = _stat_fields(pid)
    if fields is None or fields[0] in ("Z", "X"):
        return False
    return start_ticks is None or int(fields[19]) == start_ticks


def cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return ""
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def _children() -> dict[int, list[int]]:
    """Parent pid → child pids, over every live process."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def descendants(root: int, children: dict | None = None) -> list[int]:
    """Every live process below ``root`` in the process tree."""
    children = _children() if children is None else children
    found: list[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def listening_ports() -> set[int]:
    """TCP ports in LISTEN state (IPv4 and IPv6)."""
    ports: set[int] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except FileNotFoundError:
            continue
        for line in lines:
            parts = line.split()
            if len(parts) > 3 and parts[3] == "0A":
                ports.add(int(parts[1].rsplit(":", 1)[1], 16))
    return ports


def loadavg() -> list[float]:
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def host_ticks() -> tuple[int, int]:
    """``(all, steal)`` CPU ticks of the machine so far: steal is time a
    virtual CPU was ready but the hypervisor ran something else."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    values = [int(x) for x in fields]
    return sum(values[:8]), values[7] if len(values) > 7 else 0


# ----------------------------------------------------------------------
# Environment record.
# ----------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment_record(load_before: list[float],
                       ticks_before: tuple[int, int]) -> dict:
    """``repro.bench.environment_info`` plus what this benchmark depends
    on: CPUs usable, load average and CPU steal around the run, the BLAS
    library and the thread count it runs with (never set by the
    benchmark)."""
    from repro.bench import environment_info

    import numpy

    ticks_after = host_ticks()
    total = ticks_after[0] - ticks_before[0]
    record = dict(environment_info())
    record["steal_pct"] = (
        100.0 * (ticks_after[1] - ticks_before[1]) / total if total else 0.0
    )
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    record.update({
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
    })
    return record


# ----------------------------------------------------------------------
# The served system as a separate process tree.
# ----------------------------------------------------------------------


class LauncherError(RuntimeError):
    """The launcher did not come up."""


class ServedSystem:
    """``launcher.py`` hosting a Gateway over a 1-backend, 1-worker fleet.

    ``roles()`` maps the tree onto layers by position: the launcher is the
    gateway, its spawned child the NetServer parent, that child's spawned
    child the worker; resource trackers count toward the system total only.
    """

    def __init__(self, artifact: Path, gate: OutputGate):
        self.gate = gate
        self._shm_before = shm_segments()
        self.ports: set[int] = set()
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"),
             "--artifact", str(artifact)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=str(ROOT),
        )
        self._stopped = False
        try:
            line = self._read_line(READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started
        info = json.loads(line)
        self.gateway = tuple(info["gateway"])
        self.backends = [tuple(address) for address in info["backends"]]
        self.spawn_s = float(info["spawn_s"])
        self.gateway_s = float(info["gateway_s"])
        self.ports = {self.gateway[1]} | {port for _, port in self.backends}
        self._tree = self._snapshot()

    def _read_line(self, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        stream = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise LauncherError(f"launcher not ready after {timeout_s}s")
            ready, _, _ = select.select([stream], [], [], remaining)
            if ready:
                line = stream.readline()
                if not line:
                    raise LauncherError(
                        f"launcher exited with {self.proc.wait()} before "
                        "it was ready"
                    )
                return line.decode()

    def _snapshot(self) -> dict[int, int | None]:
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return {pid: start_ticks(pid) for pid in pids}

    def roles(self) -> dict[str, list[int]]:
        children = _children()
        out: dict[str, list[int]] = {
            "gateway": [self.proc.pid], "netserver": [], "worker": [],
            "other": [],
        }
        for child in children.get(self.proc.pid, ()):
            if "spawn_main" not in cmdline(child):
                out["other"] += [child] + descendants(child, children)
                continue
            out["netserver"].append(child)
            for grandchild in children.get(child, ()):
                role = ("worker" if "spawn_main" in cmdline(grandchild)
                        else "other")
                out[role].append(grandchild)
                out["other"] += descendants(grandchild, children)
        return out

    def cpu(self) -> dict[str, float]:
        """CPU seconds so far per role, and ``total`` over the tree."""
        usage = {
            role: sum(cpu_seconds(pid) for pid in pids)
            for role, pids in self.roles().items()
        }
        usage["total"] = sum(usage.values())
        return usage

    def stop(self) -> None:
        """Stop the launcher, then assert nothing of the run survives;
        every leftover process, segment or port is a counted failure and
        is cleaned up so it cannot steal a core from the next run."""
        if self._stopped:
            return
        self._stopped = True
        # The tree seen at start-up plus anything spawned since (a worker
        # respawn, say): all of it must be gone after the stop.
        tree = {**getattr(self, "_tree", {}), **self._snapshot()}
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.gate.leak(f"launcher {self.proc.pid} ignored stop")
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()
        check_teardown(self.gate, tree, self._shm_before, self.ports)


def check_teardown(gate: OutputGate, tree: dict[int, int | None],
                   shm_before: set[str], ports: set[int],
                   grace_s: float = 10.0) -> None:
    """After a stop: every process of ``tree`` (pid → start time), every
    ``/dev/shm`` segment not in ``shm_before`` and every port of ``ports``
    still listening after ``grace_s`` is a counted leak, then cleaned up."""
    deadline = time.monotonic() + grace_s
    while True:
        alive = [pid for pid, ticks in tree.items() if _alive(pid, ticks)]
        shm = sorted(shm_segments() - shm_before)
        listening = sorted(ports & listening_ports())
        if not (alive or shm or listening) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in alive:
        gate.leak(f"process {pid} ({cmdline(pid)[:80]})")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for name in shm:
        gate.leak(f"/dev/shm/{name}")
        try:
            os.unlink(f"/dev/shm/{name}")
        except FileNotFoundError:
            pass
    for port in listening:
        gate.leak(f"listening port {port}")
