"""Argument checks shared by the command-line front ends.

A command that simulates for minutes and only then finds it cannot write
its report has wasted the run, so ``python -m repro.trace`` and
``python -m repro.serve`` check every output path before any work and
report a bad one as a :class:`~repro.errors.ConfigError` (exit 2, one
``error: config:`` line).
"""

from __future__ import annotations

import os

from repro.errors import ConfigError


def check_output_paths(paths: dict) -> None:
    """Raise :class:`ConfigError` naming the option for the first path of
    ``paths`` (option -> path, None when the option was not given) that
    cannot be written: its directory is missing, it is a directory, or
    it (or, when it does not exist yet, its directory) is not
    writable."""
    for option, path in paths.items():
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(
                f"{option}: cannot write {path}: no directory {directory}")
        if os.path.isdir(path):
            raise ConfigError(
                f"{option}: cannot write {path}: it is a directory")
        if not os.access(path if os.path.exists(path) else directory,
                         os.W_OK):
            raise ConfigError(
                f"{option}: cannot write {path}: permission denied")
