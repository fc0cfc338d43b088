"""Single-source package version resolution.

The version lives in exactly one place: ``pyproject.toml``.  Installed
distributions resolve it through :mod:`importlib.metadata`; source-tree
checkouts (``PYTHONPATH=src``, no ``pip install``) fall back to parsing
the adjacent ``pyproject.toml`` directly, so ``repro --version`` agrees
with the packaging metadata in both layouts.  ``repro.__version__``
imports this module on first access (:mod:`repro._lazy`), so importing
the package alone never loads :mod:`importlib.metadata`.
"""

from __future__ import annotations

import re
from importlib import metadata
from pathlib import Path

__all__ = ["package_version", "__version__"]

_VERSION_RE = re.compile(r'^version\s*=\s*"([^"]+)"', flags=re.MULTILINE)


def _pyproject_version() -> str | None:
    """The ``version = "..."`` value of the source tree's pyproject.toml."""
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text()
    except OSError:
        return None
    match = _VERSION_RE.search(text)
    return match.group(1) if match else None


def package_version() -> str:
    """Resolve the package version (installed metadata, then pyproject)."""
    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        return _pyproject_version() or "0.0.0+unknown"


#: The resolved package version string.
__version__ = package_version()
