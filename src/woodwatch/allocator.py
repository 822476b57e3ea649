"""The C allocator policy of a woodwatch process: one glibc heap, never shrunk.

Importing this module sets nothing. The process owner calls
``keep_malloc_heap()``: ``cli.entry_point`` for every command, and
``IngestServer`` for library callers that serve in a process of their own.
"""

from __future__ import annotations

import ctypes

# glibc mallopt (param, value), applied in this order: M_MMAP_THRESHOLD 32 MiB,
# glibc's own ceiling for its dynamic threshold on 64-bit, and the one setting
# it may refuse (above its ceiling, as on 32-bit); M_TRIM_THRESHOLD never
# reached; M_ARENA_MAX 1, last, since one arena alone still faults
MALLOC_POLICY = ((-3, 32 << 20), (-1, 2**31 - 1), (-8, 1))


def keep_malloc_heap() -> None:
    """Serve every thread's allocations from one glibc heap that is never shrunk.

    The setting is process-wide: it holds for every thread of the process
    from this call on (one that already has an arena of its own keeps it),
    and resident memory stays at its peak. Without it each thread gets its
    own arena, and large NumPy temporaries (a clip's frames and spectra)
    go back to the kernel once freed, so the next clip faults them in
    again. Where the C library has no ``mallopt`` (not glibc) nothing is
    set. The settings are applied in order and stop at the first that
    fails, so a refused mmap threshold leaves the allocator as it was.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # Windows takes no CDLL(None); macOS has no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in MALLOC_POLICY:
        if not mallopt(param, value):
            return
