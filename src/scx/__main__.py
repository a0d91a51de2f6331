"""``python -m scx``: the ``scx`` command line."""

import sys

from .cli import main

sys.exit(main())
