"""Package CLI: a tiny front door.

Usage::

    python -m repro            # overview: the design-space table + pointers
    python -m repro --specs    # the figures, paper-style, and the table
    python -m repro --demo     # run the quickstart scenario inline
"""

from __future__ import annotations

import sys

from . import __version__


def _design_space() -> str:
    """The spec rows, and the ``repro.weaksets`` classes judged against
    each (``-``: no class names that row as its own)."""
    from . import weaksets
    from .bench.report import format_table
    from .spec import ALL_FIGURES, RELAXED_VARIANTS

    judged: dict[str, list[str]] = {}
    for name in weaksets.__all__:
        cls = getattr(weaksets, name)
        if isinstance(cls, type) and issubclass(cls, weaksets.WeakSet):
            judged.setdefault(cls.semantics, []).append(name)
    columns = ("spec_by_id", "figure", "basis", "guard", "yields",
               "guard set exhausted", "constraint", "judged against it")
    table = format_table([dict(zip(columns, (
        spec.spec_id, spec.paper_figure, f"s_{spec.membership_basis}",
        spec.guard, spec.yields, spec.exhausted, spec.constraint.formula,
        ", ".join(judged.get(spec.spec_id, "-")))))
        for spec in ALL_FIGURES + RELAXED_VARIANTS], columns)
    return "\n".join(line.rstrip() for line in table.splitlines())


def _overview() -> str:
    return "\n".join([
        f"repro {__version__} — 'Specifying Weak Sets' (Wing & Steere, ICDCS 1995)",
        "",
        "the design space:",
        _design_space(),
        "",
        "try:",
        "  python -m repro --specs          the figures, paper-style",
        "  python -m repro --demo           a simulated query, checked",
        "  python -m repro.bench            the evaluation (E1–E25)",
        "  python examples/quickstart.py    the guided tour",
    ])


def _demo() -> str:
    from . import (
        DynamicSet,
        FixedLatency,
        Kernel,
        Network,
        World,
        full_mesh,
    )
    from .sim import Sleep

    kernel = Kernel(seed=7)
    net = Network(kernel, full_mesh(["client", "s0", "s1"], FixedLatency(0.01)))
    world = World(net)
    world.create_collection("demo", primary="s0")
    for i in range(4):
        world.seed_member("demo", f"item-{i}", value=i, home=f"s{i % 2}")
    ws = DynamicSet(world, "client", "demo")
    iterator = ws.elements()

    def blip():
        yield Sleep(0.03)
        net.isolate("s1")
        yield Sleep(1.0)
        net.rejoin("s1")

    def query():
        return (yield from iterator.drain())

    kernel.spawn(blip(), daemon=True)
    result = kernel.run_process(query())
    report = ws.audit()
    lines = [
        f"ran a Figure 6 query over 4 scattered items with a mid-run partition:",
        f"  yielded {len(result.elements)} items in {result.total_time:.2f}s "
        f"(first after {result.time_to_first:.3f}s), outcome: {result.outcome}",
        f"  conformance vs Figure 6: "
        f"{'CONFORMS' if report.conformant else report.counterexample()}",
    ]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if "--specs" in argv:
        from .spec import render_all
        print(render_all(), _design_space(), sep="\n\n")
        return 0
    if "--demo" in argv:
        print(_demo())
        return 0
    print(_overview())
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
