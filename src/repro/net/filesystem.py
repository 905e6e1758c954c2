"""Simulated file namespaces at each endpoint.

Each site (the user's origin host and every resource) has a
:class:`SharedFilesystem` holding named files with sizes. Staging a file
copies its record across a network transfer; tasks then verify their
inputs exist at the resource before "running", which gives the
integration tests a real data-placement invariant to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


class FileNotFound(Exception):
    """Raised when reading or staging a file that does not exist."""


class FileExists(Exception):
    """Raised when exclusively creating a file that already exists."""


@dataclass(frozen=True)
class FileRecord:
    """Metadata for one stored file."""

    name: str
    size_bytes: float
    created_at: float


class SharedFilesystem:
    """A flat namespace of files at one site."""

    def __init__(self, site: str) -> None:
        self.site = site
        self._files: Dict[str, FileRecord] = {}
        self.bytes_written = 0.0

    def __len__(self) -> int:
        return len(self._files)

    def write(
        self, name: str, size_bytes: float, now: float, exclusive: bool = False
    ) -> FileRecord:
        """Create or overwrite a file record."""
        if size_bytes < 0:
            raise ValueError("file size must be non-negative")
        if exclusive and name in self._files:
            raise FileExists(f"{self.site}:{name} already exists")
        rec = FileRecord(name=name, size_bytes=float(size_bytes), created_at=now)
        self._files[name] = rec
        self.bytes_written += size_bytes
        return rec

    def stat(self, name: str) -> FileRecord:
        """Return the record for ``name`` or raise FileNotFound."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFound(f"{self.site}:{name}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def total_bytes(self) -> float:
        return sum(rec.size_bytes for rec in self._files.values())
