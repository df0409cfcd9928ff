"""Importing wrp loads numpy's OpenBLAS with one thread unless the caller
chose a thread count: ``wrp/__init__.py`` sets ``OPENBLAS_NUM_THREADS``
before its first numpy import."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = ("import os, wrp.cli; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")


def fresh_import(**extra):
    # this process imported wrp, so its own environment already holds the variable
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(extra, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, int(threads)


def test_import_sets_one_openblas_thread():
    assert fresh_import() == ("1", 1)


def test_import_keeps_the_callers_thread_count():
    assert fresh_import(OPENBLAS_NUM_THREADS="2")[0] == "2"
