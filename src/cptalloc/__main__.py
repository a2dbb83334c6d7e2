"""Command-line entry point: ``python -m cptalloc`` runs ``cpt-alloc``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
