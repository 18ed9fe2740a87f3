import sys

from .cli import entry

sys.exit(entry())
