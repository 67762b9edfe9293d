"""``python -m liesegang``: the command line interface of :mod:`liesegang.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
