#!/usr/bin/env python3
"""Dynamic sets in the distributed file system: weak ls vs strict ls.

Builds a directory whose files are scattered over WAN clusters, crashes
one file server, and runs both listings — the traditional all-or-nothing
`ls` and the streaming, parallel, failure-tolerant weak one — then a
weak `find` for the files that satisfy a predicate, with the server
still down.

Run:  python examples/dynamic_ls.py
"""

from repro.bench import build_scattered_fs
from repro.dynsets import strict_ls, weak_find, weak_ls


def main() -> None:
    kernel, net, world, fs = build_scattered_fs(
        n_files=16, seed=5, service_time=0.01)
    net.crash("n2.0")     # one file server is down

    def run_strict():
        return (yield from strict_ls(fs, "client", "/pub"))

    strict_result = kernel.run_process(run_strict())
    print("--- strict ls /pub (traditional semantics) ---")
    if strict_result.failed:
        print(f"FAILED after {strict_result.total_time:.2f}s: "
              f"{strict_result.error}")
        print("(all-or-nothing: no partial listing)")
    else:
        print(f"{len(strict_result.names)} entries in "
              f"{strict_result.total_time:.2f}s")
    print()

    def run_weak():
        return (yield from weak_ls(fs, "client", "/pub",
                                   parallelism=6, give_up_after=2.0))

    weak_result = kernel.run_process(run_weak())
    print("--- weak ls /pub (dynamic sets) ---")
    print(f"{len(weak_result.entries)} entries, first after "
          f"{weak_result.time_to_first:.3f}s, done in "
          f"{weak_result.total_time:.2f}s:")
    for entry in sorted(weak_result.entries, key=lambda e: e.name):
        marker = "  (unreachable tonight)" if entry.kind == "unavailable" else ""
        print(f"  {entry.name}{marker}")
    # The listing was one recorded Figure 6 run.  Figure 6 never fails,
    # so giving up on the crashed server is reported, not hidden.
    report = weak_result.handle.audit()
    print(f"audit: {report.summary()}")
    if not report.conformant:
        print(f"  {weak_result.handle.outcome}")
    print()

    # "finding all files that satisfy a given predicate": every directory
    # the walk opens is a dynamic set, so the query is weak too.
    def run_find():
        return (yield from weak_find(
            fs, "client", "/pub", lambda path, meta: path.startswith("/pub/f01"),
            parallelism=6, give_up_after=2.0))

    found = kernel.run_process(run_find())
    print("--- weak find /pub -name 'f01*' ---")
    print(f"{len(found.matches)} matches in {found.total_time:.2f}s "
          f"({found.entries_examined} entries examined): "
          f"{', '.join(found.paths)}")
    print(f"unreachable: {', '.join(found.unreachable) or 'none'}")


if __name__ == "__main__":
    main()
