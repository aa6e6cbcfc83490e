"""Process settings shared by every benchmark process; import it first.

Pins BLAS and OpenMP pools to one thread (before numpy is imported), puts
the checkout's ``src`` on the import path of this process and of every
process it starts, and exits with an error when the checkout holds no
program source.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "sxpid", "__init__.py")):
    sys.exit(f"error: no program source at {SRC}/sxpid; run from a checkout")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = SRC
os.environ.pop("SXPID_WORKERS", None)
