"""weak_find: recursive predicate search over the distributed FS."""


from repro.dynsets import FileSystem, weak_find
from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.store import World


def make_tree():
    nodes = ["client", "root", "n1", "n2", "n3"]
    kernel = Kernel(seed=0)
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    world = World(net)
    fs = FileSystem(world, root_node="root")
    fs.mkdir("/src", node="n1")
    fs.mkdir("/src/core", node="n2")
    fs.mkdir("/docs", node="n3")
    fs.create_file("/readme.md", content="hi", home="root", size=10)
    fs.create_file("/src/main.py", content="code", home="n1", size=100)
    fs.create_file("/src/core/engine.py", content="code", home="n2", size=200)
    fs.create_file("/src/core/engine.c", content="code", home="n3", size=300)
    fs.create_file("/docs/guide.md", content="doc", home="n3", size=50)
    return kernel, net, world, fs


def run_find(kernel, fs, predicate, **kwargs):
    def proc():
        return (yield from weak_find(fs, "client", "/", predicate, **kwargs))

    return kernel.run_process(proc())


def test_find_by_extension():
    kernel, net, world, fs = make_tree()
    result = run_find(kernel, fs, lambda p, m: p.endswith(".py"))
    assert sorted(result.paths) == ["/src/core/engine.py", "/src/main.py"]
    assert result.directories_visited == 4   # /, /src, /src/core, /docs
    assert result.unreachable == []
    # each directory was one recorded fig6 run
    assert len(result.handles) == 4
    assert all(h.audit().conformant for h in result.handles)


def test_find_directories_match_too():
    kernel, net, world, fs = make_tree()
    result = run_find(kernel, fs, lambda p, m: m.is_dir)
    assert sorted(result.paths) == ["/docs", "/src", "/src/core"]


def test_find_by_size():
    kernel, net, world, fs = make_tree()
    result = run_find(kernel, fs, lambda p, m: m.size >= 100)
    assert sorted(result.paths) == [
        "/src/core/engine.c", "/src/core/engine.py", "/src/main.py"]


def test_find_max_matches_stops_early():
    kernel, net, world, fs = make_tree()
    result = run_find(kernel, fs, lambda p, m: not m.is_dir, max_matches=2)
    assert len(result.matches) == 2


def test_find_skips_unreachable_subtree():
    kernel, net, world, fs = make_tree()
    net.crash("n2")         # /src/core's directory server is down
    result = run_find(kernel, fs, lambda p, m: p.endswith(".py"),
                      give_up_after=1.0)
    # main.py found; engine.py's directory was unreachable
    assert result.paths == ["/src/main.py"]
    assert "/src/core" in result.unreachable


def test_find_reports_a_directory_that_never_answers():
    kernel, net, world, fs = make_tree()
    net.crash("root")       # nothing lists "/"
    result = run_find(kernel, fs, lambda p, m: True, give_up_after=0.5)
    assert result.paths == []
    assert result.unreachable == ["/"]
    assert result.directories_visited == 0


def test_find_reports_unreachable_files():
    kernel, net, world, fs = make_tree()
    net.crash("n3")         # engine.c and guide.md homes are down
    result = run_find(kernel, fs, lambda p, m: True, give_up_after=0.5)
    unreachable = set(result.unreachable)
    assert "/src/core/engine.c" in unreachable
    # /docs: its *entry object* lives on n3 too, so the /docs entry is
    # unreachable from the root listing; the subtree is skipped
    assert any(p.startswith("/docs") for p in unreachable)


def test_find_nothing_matches():
    kernel, net, world, fs = make_tree()
    result = run_find(kernel, fs, lambda p, m: p.endswith(".rs"))
    assert result.paths == []
    assert result.entries_examined >= 7
