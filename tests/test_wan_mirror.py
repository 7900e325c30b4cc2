"""The software-mirror workload: weak ls and weak find over packages.

A mirror network is the canonical example of the paper's "loose
collections of reference objects ... stored across many organizations":
a ``/pub/<category>/<package>/`` tree whose files live on mirror sites,
some of which are down at any moment.  The tree is built here, from the
public ``repro.net`` / ``repro.dynsets`` surface.
"""

from dataclasses import dataclass

from repro.dynsets import FileSystem, strict_ls, weak_find, weak_ls
from repro.net import FixedLatency, Network, wan_clusters
from repro.sim import Kernel
from repro.store import World

CATEGORIES = ["editors", "compilers", "games", "networking"]


@dataclass
class Mirror:
    kernel: Kernel
    net: Network
    fs: FileSystem
    packages: list
    client: str = "client"


def build_mirror(seed, n_sites=4, site_size=2):
    """Four two-node mirror sites on 500 kB/s WAN clusters, a client on
    site 0, and three packages of three tarballs and a README per
    category."""
    kernel = Kernel(seed=seed)
    topo = wan_clusters([site_size] * n_sites,
                        intra_latency=FixedLatency(0.003),
                        inter_latency=FixedLatency(0.070),
                        intra_bandwidth=500_000.0,
                        inter_bandwidth=500_000.0)
    topo.add_node("client")
    topo.add_link("client", "n0.0", FixedLatency(0.003), bandwidth=500_000.0)
    net = Network(kernel, topo)
    fs = FileSystem(World(net), root_node="n0.0")
    stream = kernel.stream("mirror.seed")

    def any_site_node():
        site = stream.zipf_index(n_sites, 0.7)
        return f"n{site}.{stream.randint(0, site_size - 1)}"

    fs.mkdir("/pub", node="n0.0")
    packages = []
    for category in CATEGORIES:
        fs.mkdir(f"/pub/{category}", node=any_site_node())
        for p in range(3):
            pkg = f"{category[:4]}-pkg{p}"
            pkg_path = f"/pub/{category}/{pkg}"
            pkg_node = any_site_node()
            fs.mkdir(pkg_path, node=pkg_node)
            packages.append(pkg_path)
            for f in range(3):
                size = stream.randint(10_000, 200_000)
                fs.create_file(f"{pkg_path}/{pkg}-{f}.tar.gz",
                               content=f"tarball {pkg}/{f}",
                               home=any_site_node(), size=size)
            fs.create_file(f"{pkg_path}/README", content=f"{pkg} readme",
                           home=pkg_node, size=512)
    return Mirror(kernel=kernel, net=net, fs=fs, packages=packages)


def test_mirror_builds_full_tree():
    wl = build_mirror(seed=1)
    assert len(wl.packages) == len(CATEGORIES) * 3
    # every category directory lists its packages (ground truth)
    for category in CATEGORIES:
        entries = wl.fs.listdir_truth(f"/pub/{category}")
        assert len(entries) == 3


def test_mirror_build_is_deterministic():
    a = build_mirror(seed=7)
    b = build_mirror(seed=7)
    assert a.packages == b.packages
    assert ({e.home for e in a.fs.listdir_truth("/pub/editors")}
            == {e.home for e in b.fs.listdir_truth("/pub/editors")})


def test_weak_ls_lists_category():
    wl = build_mirror(seed=2)

    def proc():
        return (yield from weak_ls(wl.fs, wl.client, "/pub/compilers"))

    result = wl.kernel.run_process(proc())
    assert len(result.names) == 3
    assert all(name.startswith("comp") for name in result.names)


def test_weak_find_readmes_across_tree():
    wl = build_mirror(seed=3)

    def proc():
        return (yield from weak_find(
            wl.fs, wl.client, "/pub", lambda p, m: p.endswith("/README")))

    result = wl.kernel.run_process(proc())
    assert len(result.paths) == len(wl.packages)


def test_weak_find_big_tarballs():
    wl = build_mirror(seed=4)

    def proc():
        return (yield from weak_find(
            wl.fs, wl.client, "/pub",
            lambda p, m: not m.is_dir and m.size > 150_000))

    result = wl.kernel.run_process(proc())
    assert result.paths                   # some big tarballs exist
    assert all(p.endswith(".tar.gz") for p in result.paths)


def test_mirror_survives_site_outage():
    wl = build_mirror(seed=5)
    # knock out one whole mirror site
    for node in ["n2.0", "n2.1"]:
        wl.net.crash(node)

    def proc():
        return (yield from weak_find(
            wl.fs, wl.client, "/pub", lambda p, m: p.endswith("/README"),
            give_up_after=1.0))

    result = wl.kernel.run_process(proc())
    # partial answer: some READMEs found, the rest reported unreachable
    assert result.paths
    assert len(result.paths) + len(
        [u for u in result.unreachable]) >= len(wl.packages) - 4
    # the traditional command would simply fail on the first dead home
    def strict():
        return (yield from strict_ls(wl.fs, wl.client, "/pub/editors",
                                     timeout=1.0))

    strict_result = wl.kernel.run_process(strict())
    # (it fails only if an editors entry lived on site 2 — check both ways)
    homes = {e.home for e in wl.fs.listdir_truth("/pub/editors")}
    if homes & {"n2.0", "n2.1"}:
        assert strict_result.failed
