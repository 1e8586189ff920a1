"""The repository benchmark: serving workloads, end to end or by layer.

Run from the repository root::

    python3 perfbench/run.py --workload plain-bursty --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, as the
median over several fresh processes; requests served per host-second,
over repeated calls of the workload in several fresh processes; and
the peak resident memory of a process or any of its workers.  Both
timings are scaled to a reference host speed (see ``PROBE_EXPONENT``).
``--trace 1`` instead splits the same calls by layer (see
``tracer.py``): it runs the workload once untraced and once traced,
checks that both produced the same simulated outputs, and reports the
per-layer metrics.

Every call's outputs are checked (see ``workloads.check``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Caches and temporary files
go to a scratch directory in the checkout that is removed at exit, so
a run leaves ``git status`` unchanged.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402 -- needs HERE on sys.path

SESSION = HERE / "session.py"

#: Fresh processes that share the timed window, ``--seconds`` / this
#: each.  Each process has its own luck (memory layout, string-hash
#: seed), which the calls of several processes average out.  A fresh
#: process that only sets up runs before each of them, so the run takes
#: twice this many ``setup_s`` samples, spread over the whole run.
TIMED_SESSIONS = 3

#: Wall-clock allowance of a run beyond ``--seconds`` (s): the set-up
#: of every process, and calls that overrun their process's window.
SLACK_S = 120.0

#: The host probe's time on the reference host (s).  Timings are
#: scaled to that host's speed: a timing taken while the probe took
#: ``p`` is multiplied by ``(PROBE_REF_S / p) ** PROBE_EXPONENT``.
PROBE_REF_S = 0.075

#: How strongly timings follow the probe.  The host's speed drifts by
#: up to 1.5x within minutes; of the exponents 0, 0.5, 0.6, 0.75 and 1,
#: 0.75 left the smallest run-to-run spread, worst and on average, over
#: two sets of ten runs of every workload on a 2-CPU host (README.md).
PROBE_EXPONENT = 0.75

END_TO_END = {
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SessionError(RuntimeError):
    """A benchmark process failed, so nothing was measured."""


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _session(root: Path, env: dict, args: argparse.Namespace, mode: str,
             seconds: float, deadline: float) -> dict:
    """Run one fresh ``session.py`` process; return its report."""
    cmd = [sys.executable, str(SESSION), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", repr(seconds)]
    # its own process group, so a hung session and its pool workers
    # can be stopped together
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise SessionError(f"{mode} session passed the time limit")
    except BaseException:
        _kill_group(proc.pid)
        proc.communicate()
        raise
    _kill_group(proc.pid)  # a worker the session failed to stop
    if proc.returncode != 0:
        raise SessionError(f"{mode} session exited with code "
                           f"{proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SessionError(f"{mode} session printed no report") from None


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "--no-optional-locks", "-C",
                               str(root), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path, args: argparse.Namespace) -> dict:
    """Where and on what the run was taken."""
    top = _git(root, "rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == root.resolve()
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") if in_git else None,
        "dirty": bool(_git(root, "status", "--porcelain")) if in_git
        else None,
        "src_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _child_env(root: Path, scratch: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env.update(PYTHONPATH=os.pathsep.join(paths),
               REPRO_CACHE_DIR=str(scratch / "cache"),
               REPRO_RUN_STORE=str(scratch / "runs.jsonl"),
               TMPDIR=str(scratch))
    return env


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` timed while the host probe took ``probe_s``, scaled
    to the reference host's speed."""
    return seconds * (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def _rps(reports: list[dict], scaled: bool = True) -> float:
    """Requests served per host-second over every call of ``reports``,
    at the reference host's speed unless ``scaled`` is false."""
    served = sum(r["n"] * len(r["walls"]) for r in reports)
    seconds = sum(at_reference(wall, probe) if scaled else wall
                  for r in reports
                  for wall, probe in zip(r["walls"], r["probes"]))
    return served / seconds if seconds else 0.0


def _report_errors(label: str, report: dict) -> None:
    for error in report["errors"]:
        print(f"check failed ({label}): {error}", file=sys.stderr)


def end_to_end(root: Path, env: dict, args: argparse.Namespace,
               deadline: float) -> dict:
    setups, timed = [], []
    for _ in range(TIMED_SESSIONS):
        setups.append(_session(root, env, args, "setup", 0.0, deadline))
        timed.append(_session(root, env, args, "time",
                              args.seconds / TIMED_SESSIONS, deadline))
    failed = 0
    for k, report in enumerate(timed):
        _report_errors(f"timed process {k}", report)
        failed += report["failed"]
        if report["digest"] != timed[0]["digest"]:
            print(f"check failed: process {k} outputs {report['outputs']} "
                  f"differ from process 0", file=sys.stderr)
            failed += report["attempted"] - report["failed"]
    print(f"outputs {json.dumps(timed[0]['outputs'])} "
          f"digest={timed[0]['digest']}")
    walls = [wall for report in timed for wall in report["walls"]]
    probes = [p for report in timed for p in report["probes"]]
    setup = [s["setup_s"] for s in setups + timed]
    setup_probes = [s["setup_probe_s"] for s in setups + timed]
    peaks = [report["peak_rss_mb"] for report in timed]
    metrics = {
        "requests_per_s": _rps(timed),
        "setup_s": statistics.median(map(at_reference, setup, setup_probes)),
        "peak_rss_mb": max(peaks),
    }
    print(f"n={timed[0]['n']} calls={len(walls)} "
          f"walls_s={[round(w, 3) for w in walls]} "
          f"setup_s={[round(s, 3) for s in setup]} "
          f"peak_rss_mb={[round(p, 1) for p in peaks]}")
    print(f"unscaled requests_per_s={_rps(timed, scaled=False):.1f} "
          f"setup_s={statistics.median(setup):.4f}; host probe ms: "
          f"calls={[round(p * 1e3, 1) for p in probes]} "
          f"set-up={[round(p * 1e3, 1) for p in setup_probes]}")
    return {"correct": failed == 0,
            "attempted": sum(report["attempted"] for report in timed),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                        for name, value in metrics.items()}}


def per_layer(root: Path, env: dict, args: argparse.Namespace,
              deadline: float) -> dict:
    plain = _session(root, env, args, "time", args.seconds / 2, deadline)
    traced = _session(root, env, args, "trace", args.seconds / 2, deadline)
    _report_errors("untraced run", plain)
    _report_errors("traced run", traced)
    failed = plain["failed"] + traced["failed"]
    if traced["digest"] != plain["digest"]:
        # the tracer must only observe: any drift fails every traced call
        print(f"check failed: traced outputs {traced['outputs']} differ "
              f"from untraced {plain['outputs']}", file=sys.stderr)
        failed += traced["attempted"] - traced["failed"]
    print(f"outputs {json.dumps(plain['outputs'])} "
          f"digest={plain['digest']} traced_digest={traced['digest']}")
    if plain["walls"] and traced["walls"]:
        untraced_rps, traced_rps = _rps([plain]), _rps([traced])
        print(f"requests_per_s untraced={untraced_rps:.1f} "
              f"traced={traced_rps:.1f} (tracing overhead "
              f"{untraced_rps / traced_rps - 1:.1%}; "
              f"{len(plain['walls'])} and {len(traced['walls'])} calls)")
    layers = traced["layers"] or {name: 0.0 for name in PER_LAYER}
    for name, (unit, _better) in PER_LAYER.items():
        print(f"  {name:34s} {layers[name]:>16.6g} {unit}")
    return {"correct": failed == 0,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": failed,
            "metrics": {name: {"value": layers[name], "unit": unit}
                        for name, (unit, _better) in PER_LAYER.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time or trace one serving workload.")
    parser.add_argument("--workload", required=True,
                        help="plain-bursty, sharded-steady, geo-follow_sun "
                             "or failure-retry")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed calls run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + SLACK_S
    print(f"provenance {json.dumps(provenance(root, args))}")
    measure = per_layer if args.trace else end_to_end
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=root) as scratch:
        try:
            result = measure(root, _child_env(root, Path(scratch)), args,
                             deadline)
        except SessionError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    print(f"loadavg_after {[round(x, 2) for x in os.getloadavg()]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
