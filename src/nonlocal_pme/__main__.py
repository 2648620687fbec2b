"""``python -m nonlocal_pme``: the ``nonlocal-pme`` command line."""

from .cli import main

raise SystemExit(main())
