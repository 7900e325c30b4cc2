"""strict_ls vs weak_ls: the paper's motivating comparison."""


from repro.dynsets import FileSystem, strict_ls, weak_ls
from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel, Sleep
from repro.store import World


def make_fs(n_files=6, n_nodes=4, service_time=0.002):
    nodes = ["client", "root"] + [f"n{i}" for i in range(n_nodes)]
    kernel = Kernel()
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    world = World(net, service_time=service_time)
    fs = FileSystem(world, root_node="root")
    fs.mkdir("/pub", node="root")
    for i in range(n_files):
        fs.create_file(f"/pub/f{i:02d}", content=f"data{i}", home=f"n{i % n_nodes}")
    return kernel, net, world, fs


def test_strict_ls_lists_alphabetically():
    kernel, net, world, fs = make_fs(5)

    def proc():
        return (yield from strict_ls(fs, "client", "/pub"))

    result = kernel.run_process(proc())
    assert not result.failed
    assert result.names == sorted(result.names)
    assert len(result.names) == 5


def test_strict_ls_fails_on_unreachable_file():
    kernel, net, world, fs = make_fs(6)
    net.crash("n1")

    def proc():
        return (yield from strict_ls(fs, "client", "/pub"))

    result = kernel.run_process(proc())
    assert result.failed
    assert result.entries == []      # all-or-nothing


def test_weak_ls_returns_reachable_files_despite_failure():
    kernel, net, world, fs = make_fs(8, n_nodes=4)
    net.crash("n1")

    def proc():
        return (yield from weak_ls(fs, "client", "/pub", give_up_after=1.0))

    result = kernel.run_process(proc())
    assert not result.failed
    available = [e for e in result.entries if e.kind != "unavailable"]
    unavailable = [e for e in result.entries if e.kind == "unavailable"]
    assert len(available) == 6       # files on n0, n2, n3
    assert len(unavailable) == 2     # files on the crashed n1
    assert {e.name for e in result.entries} == {f"f{i:02d}" for i in range(8)}


def test_weak_ls_faster_to_first_entry_than_strict_total():
    kernel, net, world, fs = make_fs(12, service_time=0.02)

    def weak():
        return (yield from weak_ls(fs, "client", "/pub", parallelism=4))

    weak_result = kernel.run_process(weak())

    def strict():
        return (yield from strict_ls(fs, "client", "/pub"))

    strict_result = kernel.run_process(strict())
    assert not weak_result.failed and not strict_result.failed
    assert weak_result.time_to_first < strict_result.total_time / 4
    assert weak_result.total_time < strict_result.total_time


def test_weak_ls_with_limit_stops_early():
    kernel, net, world, fs = make_fs(10, service_time=0.02)

    def proc():
        return (yield from weak_ls(fs, "client", "/pub", limit=3))

    result = kernel.run_process(proc())
    assert len([e for e in result.entries if e.kind != "unavailable"]) == 3


def test_weak_ls_lists_directories_too():
    kernel, net, world, fs = make_fs(2)
    fs.mkdir("/pub/sub", node="n2")

    def proc():
        return (yield from weak_ls(fs, "client", "/pub"))

    result = kernel.run_process(proc())
    kinds = {e.name: e.kind for e in result.entries}
    assert kinds["sub"] == "dir"
    assert kinds["f00"] == "file"


def test_weak_ls_blocks_then_completes_after_heal_without_give_up():
    kernel, net, world, fs = make_fs(6, n_nodes=3)
    net.isolate("n0")

    def healer():
        yield Sleep(3.0)
        net.heal()

    def proc():
        return (yield from weak_ls(fs, "client", "/pub"))  # no give_up

    kernel.spawn(healer(), daemon=True)
    result = kernel.run_process(proc())
    assert not result.failed
    assert len(result.entries) == 6
    assert all(e.kind == "file" for e in result.entries)
    assert result.handle.audit().conformant       # one recorded fig6 run
