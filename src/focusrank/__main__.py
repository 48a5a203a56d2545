"""`python -m focusrank VERB ...`: the command line, as the `focusrank` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
