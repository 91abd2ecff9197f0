"""`python -m ontounpack`: the command line of ontounpack.cli, without an install."""
import sys

from .cli import main

sys.exit(main())
