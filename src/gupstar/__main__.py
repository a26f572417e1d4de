"""``python -m gupstar``: the command-line front end of :mod:`gupstar.cli`."""

import sys

from .cli import main

sys.exit(main())
