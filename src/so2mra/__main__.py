"""``python -m so2mra [config-file] [flags]``: run one sweep and write its CSV."""

import sys

from .harness import main

sys.exit(main())
