"""``python -m anomap``: the ``anomap`` command line."""

import sys

from .cli import main

sys.exit(main())
