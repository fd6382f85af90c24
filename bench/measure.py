"""Statistics, failure classification and machine facts for the benchmark."""

from __future__ import annotations

import glob
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata

TAIL_BEYOND = 10


@dataclass
class OpRecord:
    kind: str
    seconds: float
    failure: str | None  # None for a successful op, else the reason
    outcome: object = None  # what the op returned, for the oracles


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Nearest-rank: the value at rank n - beyond (1-based) of the sorted
    samples, its percentile 100 * rank / n, and the count above it.  With
    ``beyond`` samples or fewer no percentile qualifies; the maximum is
    returned with a count of 0 so the shortfall is visible.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, 0
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n - rank


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def failure_reason(outcome=None, exc: BaseException | None = None, expected=()) -> str | None:
    """Why an op failed, or None when it succeeded.

    ``expected`` lists the exception types the program raises by design
    (GeometryError); any other exception is reported as ``crash:<type>``
    and marks the run incorrect.  An outcome dict fails on a nonzero
    ``exit``, a failed validator, ``converged=False`` or a ``mismatch``.
    """
    if exc is not None:
        if isinstance(exc, tuple(expected)):
            return "geometry_error"
        return f"crash:{type(exc).__name__}"
    if not isinstance(outcome, dict):
        return None
    if outcome.get("exit", 0) != 0:
        return f"exit_{outcome['exit']}"
    if outcome.get("validator_passed") is False:
        return "validator"
    if outcome.get("converged") is False:
        return "unconverged"
    if outcome.get("mismatch"):
        return "mismatch"
    return None


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = open(os.path.join(d, "level")).read().strip()
            kind = open(os.path.join(d, "type")).read().strip()
            size = open(os.path.join(d, "size")).read().strip()
        except OSError:
            continue
        out[f"L{level}-{kind}"] = size
    return out


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        res = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def machine_record(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "git_commit": git_commit(root),
        "argv": sys.argv[1:],
    }
