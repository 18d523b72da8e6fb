"""Entry point for ``python -m repro.experiments``."""

from repro.experiments.suite import main

if __name__ == "__main__":
    raise SystemExit(main())
