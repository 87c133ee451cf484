"""Run the command-line front end as `python -m blockhouse`."""
from .cli import main

raise SystemExit(main())
