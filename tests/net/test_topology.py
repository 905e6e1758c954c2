"""Tests for site filesystems and the star network."""

import pytest

from repro.des import Simulation
from repro.net import (
    FileExists,
    FileNotFound,
    Network,
    ORIGIN,
    SharedFilesystem,
    UnknownSite,
)


class TestFilesystem:
    def test_write_stat_roundtrip(self):
        fs = SharedFilesystem("site")
        fs.write("in.dat", 1024, now=3.0)
        rec = fs.stat("in.dat")
        assert rec.size_bytes == 1024
        assert rec.created_at == 3.0
        assert fs.exists("in.dat")
        assert len(fs) == 1

    def test_missing_file_raises(self):
        fs = SharedFilesystem("site")
        with pytest.raises(FileNotFound):
            fs.stat("nope")
        assert not fs.exists("nope")

    def test_exclusive_write(self):
        fs = SharedFilesystem("site")
        fs.write("f", 1, now=0, exclusive=True)
        with pytest.raises(FileExists):
            fs.write("f", 1, now=0, exclusive=True)
        fs.write("f", 2, now=1)  # non-exclusive overwrite is fine
        assert fs.stat("f").size_bytes == 2

    def test_negative_size_rejected(self):
        fs = SharedFilesystem("site")
        with pytest.raises(ValueError):
            fs.write("f", -1, now=0)

    def test_listing_and_totals(self):
        fs = SharedFilesystem("site")
        fs.write("b", 10, now=0)
        fs.write("a", 5, now=0)
        assert len(fs) == 2
        assert fs.total_bytes() == 15


class TestNetwork:
    def make(self):
        sim = Simulation()
        net = Network(sim)
        net.add_site("siteA", bandwidth_bytes_per_s=100.0, latency_s=0.0)
        net.add_site("siteB", bandwidth_bytes_per_s=200.0, latency_s=1.0)
        return sim, net

    def test_origin_exists_implicitly(self):
        sim, net = self.make()
        assert net.fs(ORIGIN).site == ORIGIN
        with pytest.raises(ValueError):
            net.add_site(ORIGIN)

    def test_duplicate_site_rejected(self):
        sim, net = self.make()
        with pytest.raises(ValueError):
            net.add_site("siteA")

    def test_unknown_site_raises(self):
        sim, net = self.make()
        with pytest.raises(UnknownSite):
            net.fs("nowhere")
        with pytest.raises(UnknownSite):
            net.link_to("nowhere")

    def test_sites_listed(self):
        sim, net = self.make()
        assert tuple(net._links) == ("siteA", "siteB")

    def test_stage_out_and_back(self):
        sim, net = self.make()
        net.fs(ORIGIN).write("input.dat", 500, now=0)
        t = net.stage(ORIGIN, "siteA", "input.dat")
        sim.run()
        assert net.fs("siteA").exists("input.dat")
        assert t.end_time == pytest.approx(5.0)  # 500 B / 100 B/s
        # produce an output at the site and stage it home
        net.fs("siteA").write("out.dat", 200, now=sim.now)
        t2 = net.stage("siteA", ORIGIN, "out.dat")
        sim.run()
        assert net.fs(ORIGIN).exists("out.dat")
        assert (t2.end_time - t2.start_time) == pytest.approx(2.0)

    def test_stage_missing_file_raises(self):
        sim, net = self.make()
        with pytest.raises(FileNotFound):
            net.stage(ORIGIN, "siteA", "ghost.dat")

    def test_stage_requires_origin_endpoint(self):
        sim, net = self.make()
        net.fs("siteA").write("f", 1, now=0)
        with pytest.raises(ValueError):
            net.stage("siteA", "siteB", "f")
        net.fs(ORIGIN).write("g", 1, now=0)
        with pytest.raises(ValueError):
            net.stage(ORIGIN, ORIGIN, "g")

    def test_file_not_visible_until_transfer_done(self):
        sim, net = self.make()
        net.fs(ORIGIN).write("slow.dat", 1000, now=0)
        net.stage(ORIGIN, "siteA", "slow.dat")  # takes 10 s
        sim.run(until=5.0)
        assert not net.fs("siteA").exists("slow.dat")
        sim.run()
        assert net.fs("siteA").exists("slow.dat")

    def test_estimate_transfer_time(self):
        sim, net = self.make()
        assert net.estimate_transfer_time("siteB", 400) == pytest.approx(1 + 2.0)

    def test_per_site_links_are_independent(self):
        sim, net = self.make()
        net.fs(ORIGIN).write("a", 1000, now=0)
        net.fs(ORIGIN).write("b", 1000, now=0)
        ta = net.stage(ORIGIN, "siteA", "a")
        tb = net.stage(ORIGIN, "siteB", "b")
        sim.run()
        # siteA link: 10 s; siteB link: 1 s latency + 5 s = 6 s; no sharing
        assert ta.end_time == pytest.approx(10.0)
        assert tb.end_time == pytest.approx(6.0)
