"""``python -m perfbench`` — see :mod:`perfbench.run`."""

import sys

from perfbench.run import main

sys.exit(main())
