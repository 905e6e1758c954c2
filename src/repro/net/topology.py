"""Star network topology between the user's origin host and the resources.

The AIMES middleware runs on the user's machine and stages task inputs
out to each resource (and outputs back), so the natural topology is a
star: one WAN link per resource, all rooted at ``origin``. Each endpoint
owns a :class:`~repro.net.filesystem.SharedFilesystem`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..des import Simulation, Waitable
from .filesystem import FileNotFound, SharedFilesystem
from .link import Link, Transfer

#: Default WAN characteristics, representative of 2015-era academic WANs
#: between a campus and XSEDE sites (order-of-magnitude realism is all the
#: staging experiments need; Ts is design-bounded to a small share of TTC).
DEFAULT_BANDWIDTH = 50e6 / 8  # 50 Mbit/s in bytes/s
DEFAULT_LATENCY = 0.04  # 40 ms

ORIGIN = "origin"


class UnknownSite(Exception):
    """Raised when addressing a site that was never registered."""


class Network:
    """Endpoints, their filesystems, and the star of WAN links."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.filesystems: Dict[str, SharedFilesystem] = {
            ORIGIN: SharedFilesystem(ORIGIN)
        }
        self._links: Dict[str, Link] = {}

    # -- topology construction ---------------------------------------------------

    def add_site(
        self,
        site: str,
        bandwidth_bytes_per_s: float = DEFAULT_BANDWIDTH,
        latency_s: float = DEFAULT_LATENCY,
    ) -> Link:
        """Register a resource endpoint and its link to the origin."""
        if site == ORIGIN:
            raise ValueError("origin is implicit; do not add it as a site")
        if site in self._links:
            raise ValueError(f"site {site!r} already registered")
        link = Link(
            self.sim, f"{ORIGIN}<->{site}", bandwidth_bytes_per_s, latency_s
        )
        self._links[site] = link
        self.filesystems[site] = SharedFilesystem(site)
        return link

    def fs(self, site: str) -> SharedFilesystem:
        try:
            return self.filesystems[site]
        except KeyError:
            raise UnknownSite(site) from None

    def link_to(self, site: str) -> Link:
        try:
            return self._links[site]
        except KeyError:
            raise UnknownSite(site) from None

    # -- staging -------------------------------------------------------------------

    def stage(self, src_site: str, dst_site: str, filename: str) -> Waitable:
        """Copy ``filename`` from one site to another; waitable on arrival.

        One endpoint must be the origin (the star has no resource-to-
        resource links; the paper's middleware likewise stages through
        the user's machine). The destination file record appears when the
        transfer completes.
        """
        if (src_site == ORIGIN) == (dst_site == ORIGIN):
            raise ValueError(
                "exactly one endpoint of a staging operation must be the origin"
            )
        src_fs = self.fs(src_site)
        record = src_fs.stat(filename)  # raises FileNotFound if missing
        remote = dst_site if src_site == ORIGIN else src_site
        link = self.link_to(remote)
        transfer = link.transfer(record.size_bytes, label=f"{filename}->{dst_site}")

        dst_fs = self.fs(dst_site)

        def deliver(waitable: Waitable) -> None:
            dst_fs.write(filename, record.size_bytes, self.sim.now)

        transfer.add_callback(deliver)
        return transfer

    def estimate_transfer_time(self, site: str, size_bytes: float) -> float:
        """Uncongested estimate: latency + size / full bandwidth.

        This is the quantity the Bundle query interface exposes: a
        useful-within-an-order-of-magnitude end-to-end estimate, per the
        paper's discussion of transfer-time predictability.
        """
        link = self.link_to(site)
        return link.latency + size_bytes / link.bandwidth
