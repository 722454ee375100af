"""`python -m multlab`: the command-line front door of `multlab.cli`."""

from .cli import main

raise SystemExit(main())
