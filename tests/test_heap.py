"""Freed grid-field memory stays in the process.

Importing nabla_calc sets glibc's mmap and trim thresholds once, so a
field that is freed leaves its pages to the next field of its size instead
of returning them to the kernel.  The probe runs in a fresh process: it
makes a (2, 513, 513) complex field and a product of it, 40 times over,
the churn of a stencil difference on the fine grid, and counts the minor
page faults those rounds take.  With glibc's own thresholds each round
faults most of the trimmed top of the heap back in.
"""

import ctypes
import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nabla_calc

SRC = Path(nabla_calc.__file__).resolve().parents[1]
SHAPE = (2, 513, 513)
FIELD_PAGES = np.empty(SHAPE, dtype=complex).nbytes // mmap.PAGESIZE

PROBE = """
import resource
import sys

import numpy as np

if sys.argv[1] == "raise":
    import ctypes

    def no_library(*args, **kwargs):
        raise OSError("no C library")

    ctypes.CDLL = no_library
elif sys.argv[1] == "bare":
    import ctypes

    ctypes.CDLL = lambda *args, **kwargs: object()

import nabla_calc


def churn(rounds):
    for _ in range(rounds):
        field = np.ones({shape}, dtype=complex)
        product = field * 2.0
        del field, product


churn(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn(40)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(nabla_calc._kernels.HEAP_KEPT, after - before)
""".format(shape=SHAPE)


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _probe(lookup):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, lookup],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.split()
    return out[0] == "True", int(out[1])


needs_mallopt = pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")


@needs_mallopt
def test_freed_fields_are_not_faulted_back_in():
    kept, faults = _probe("libc")
    assert kept
    assert faults < FIELD_PAGES, (faults, FIELD_PAGES)


@pytest.mark.parametrize("lookup", ["raise", "bare"])
def test_import_without_mallopt_leaves_the_allocator_alone(lookup):
    kept, faults = _probe(lookup)
    assert not kept
    if _has_mallopt():
        # glibc's own thresholds are in force, so the probe sees the churn
        assert faults > 5 * FIELD_PAGES, (faults, FIELD_PAGES)
