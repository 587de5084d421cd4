"""Child-process entry: ``python3 -m perfbench.child CONFIG_JSON``.

Started by ``perfbench/run.py`` with the repository root as working
directory; see :mod:`perfbench.workloads` for the modes.
"""

import sys

from perfbench.workloads import main

if __name__ == "__main__":
    sys.exit(main(sys.argv))
