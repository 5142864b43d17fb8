"""``python -m peakonlab``: the command line, also from an uninstalled checkout
(``PYTHONPATH=src python -m peakonlab ...``)."""

import sys

from .cli import main

sys.exit(main())
