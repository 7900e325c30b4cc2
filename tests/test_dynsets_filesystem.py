"""Tests for the distributed file system and path handling."""

import pytest

from repro.errors import FileSystemError, NoSuchPathError, NotADirectoryError_
from repro.dynsets import FileMeta, FileSystem, namespace as ns
from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.store import World


# ---------------------------------------------------------------------------
# namespace
# ---------------------------------------------------------------------------

def test_normalize():
    assert ns.normalize("/a/b/") == "/a/b"
    assert ns.normalize("/") == "/"
    assert ns.normalize("//a///b") == "/a/b"


def test_normalize_rejects_relative_and_dots():
    with pytest.raises(FileSystemError):
        ns.normalize("a/b")
    with pytest.raises(FileSystemError):
        ns.normalize("/a/../b")
    with pytest.raises(FileSystemError):
        ns.normalize("")


def test_split_join_parent_basename():
    assert ns.split("/a/b") == ("/a", "b")
    assert ns.split("/a") == ("/", "a")
    assert ns.split("/") == ("/", "")
    assert ns.join("/a", "b", "c") == "/a/b/c"
    assert ns.parent("/a/b/c") == "/a/b"
    assert ns.basename("/a/b/c") == "c"
    with pytest.raises(FileSystemError):
        ns.join("/a", "b/c")


# ---------------------------------------------------------------------------
# file system
# ---------------------------------------------------------------------------

def make_fs(nodes=("root", "n1", "n2")):
    kernel = Kernel()
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    world = World(net)
    fs = FileSystem(world, root_node="root")
    return kernel, net, world, fs


def test_mkdir_and_create_file():
    kernel, net, world, fs = make_fs()
    fs.mkdir("/home", node="n1")
    fs.create_file("/home/readme.txt", content="hello", home="n2")
    assert fs.is_dir("/home")
    assert not fs.is_dir("/home/readme.txt")
    entry = fs.entry("/home/readme.txt")
    assert entry.home == "n2"
    truth = fs.listdir_truth("/home")
    assert {e.name for e in truth} == {"readme.txt"}


def test_directory_entry_appears_in_parent():
    kernel, net, world, fs = make_fs()
    fs.mkdir("/home", node="n1")
    fs.mkdir("/home/alice", node="n2")
    names = {e.name for e in fs.listdir_truth("/home")}
    assert names == {"alice"}
    # the subdirectory entry's data object lives on the subdir's home
    assert fs.entry("/home/alice").home == "n2"


def test_directory_defaults_to_parent_home():
    kernel, net, world, fs = make_fs()
    fs.mkdir("/var", node="n1")
    fs.mkdir("/var/log")        # inherits n1
    assert fs.dir_home("/var/log") == "n1"


def test_duplicate_paths_rejected():
    kernel, net, world, fs = make_fs()
    fs.mkdir("/a")
    with pytest.raises(FileSystemError):
        fs.mkdir("/a")
    fs.create_file("/a/f", content="x")
    with pytest.raises(FileSystemError):
        fs.create_file("/a/f")


def test_missing_parent_rejected():
    kernel, net, world, fs = make_fs()
    with pytest.raises(NoSuchPathError):
        fs.mkdir("/no/such/place")
    with pytest.raises(NoSuchPathError):
        fs.create_file("/nowhere/f")


def test_file_is_not_a_directory():
    kernel, net, world, fs = make_fs()
    fs.create_file("/f", content="x")
    with pytest.raises(NotADirectoryError_):
        fs.create_file("/f/child")


def test_file_meta_values():
    kernel, net, world, fs = make_fs()
    fs.create_file("/data", content={"k": 1}, size=1024)
    meta_elements = fs.listdir_truth("/")
    assert len(meta_elements) == 1
    # fetch the meta through the store
    server = world.server(fs.entry("/data").home)
    stored = server.objects[fs.entry("/data").oid]
    assert isinstance(stored.value, FileMeta)
    assert stored.value.kind == "file"
    assert stored.value.content == {"k": 1}
    assert stored.size == 1024
