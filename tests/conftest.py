import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")

# ru_maxrss survives exec: a child started straight from pytest reports at
# least pytest's own peak. So a small launcher starts the snippet and reports
# the peak of its one child, which begins from the launcher's few MB.
_LAUNCHER = (
    "import resource, subprocess, sys\n"
    "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def _env() -> dict:
    """The environment of a fresh interpreter that imports the library from src/."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def _peak_rss_mb(snippet: str, timeout: float = 120) -> float:
    """Run snippet in a fresh interpreter that imports the library from src/,
    and return its peak resident set (ru_maxrss) in MB."""
    out = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, snippet],
        env=_env(), capture_output=True, text=True, check=True, timeout=timeout,
    )
    return int(out.stdout.split()[-1]) / 1024  # Linux reports KB


@pytest.fixture
def peak_rss_mb():
    """The function (snippet) -> peak RSS in MB of a fresh interpreter running it."""
    return _peak_rss_mb


def _limited(script: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter that imports the library from src/,
    under a 1 GiB address-space limit, so that an allocation too large ends
    in MemoryError; past the timeout the test fails, naming the last line
    the script printed."""
    prelude = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    try:
        return subprocess.run([sys.executable, "-c", prelude + script], capture_output=True, text=True,
                              env={**_env(), "OPENBLAS_NUM_THREADS": "1"}, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"no exit in {timeout} s, at: {(exc.stdout or b'').decode().splitlines()[-1:]}")


@pytest.fixture
def limited():
    """The function (script) -> CompletedProcess of a fresh interpreter
    running it under a 1 GiB address space."""
    return _limited


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help=(
            "run the opt-in slow checks: noncons4 at n=24 (criterion 12 and "
            "1,000 seeded search decodes per burst size)"
        ),
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
