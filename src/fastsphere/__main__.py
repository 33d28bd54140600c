"""``python -m fastsphere``: the ``fastsphere`` command line (cli.main)."""

import sys

from .cli import main

sys.exit(main())
