"""What the tests know of the CPU they run on."""
from pathlib import Path


def cpu_flags():
    """The CPU feature flags that /proc/cpuinfo lists; none where it cannot
    be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}
