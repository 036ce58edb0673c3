"""`python -m segredim ...`: the segredim command line."""
import sys

from .cli import main

sys.exit(main())
