"""Thread count of the OpenBLAS libraries loaded in this process.

After every multithreaded call OpenBLAS keeps its worker threads spinning
for a while (about 0.2 s of CPU per call on a 2-core box) before they sleep.
On the small products and eigenproblems of a typical fit the extra threads
save nothing, while the spinning worker takes a core from the
single-threaded stages that follow and makes their speed depend on what
else the machine runs. ``limited_threads`` runs a block with at most a given
number of BLAS threads and then restores the previous count. The count is
process-wide, so while the block runs it also holds for BLAS calls made by
other Python threads. Where no OpenBLAS is loaded (another BLAS, or a
platform without ``/proc/self/maps``) it does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

__all__ = ["limited_threads"]

# (prefix, suffix) of the thread-count symbols: the scipy-openblas wheels
# that numpy and scipy bundle, then a system OpenBLAS
_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", ""))


@lru_cache(maxsize=1)
def _controls() -> tuple:
    """(get, set) thread-count functions of each mapped OpenBLAS library."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    paths = dict.fromkeys(
        fields[5]
        for fields in (line.split(maxsplit=5) for line in maps.splitlines())
        if len(fields) == 6 and "openblas" in Path(fields[5]).name.lower()
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                controls.append((get, put))
                break
    return tuple(controls)


@contextmanager
def limited_threads(threads: int | None):
    """Run the block with at most ``threads`` BLAS threads.

    ``None`` leaves the thread count alone. The previous count is restored
    on exit, also when the block raises.
    """
    lowered = []
    if threads is not None:
        for get, put in _controls():
            before = get()
            if before > threads:
                put(threads)
                lowered.append((put, before))
    try:
        yield
    finally:
        for put, before in lowered:
            put(before)
