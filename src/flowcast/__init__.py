"""Road-network traffic forecasting with joint space-time linear attention."""

__version__ = "0.1.0"

import ctypes
import os


def _keep_freed_arrays_in_heap() -> None:
    """On glibc, serve arrays below 32 MiB from the heap and keep up to
    256 MiB of freed heap mapped, so each training step reuses the pages
    the last one freed instead of faulting them in again.

    By default glibc maps an array above its mmap threshold (128 KiB at
    first) on its own and trims freed heap above twice that threshold, so
    both go back to the OS and a ref228 train step faulted in about 7k
    pages again. Does nothing off glibc, or when the environment sets
    ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_``, which then
    decide both.
    """
    if {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys():
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_arrays_in_heap()

from .tensor import Tensor, backward, l1_loss  # noqa: E402, F401
