"""Every method the end-to-end benchmark times still exists.

``benchmarks/e2e/tracing.py`` wraps each ``(class, method)`` of its
``LAYER_TABLE`` only if the class defines the method (an inherited one
is timed by its defining class's row), so a rename in
``src/`` silently drops the method out of its layer and the layer reads
zero.  This test reads the table (without importing the harness's
package) and fails on any row whose class does not define its method,
apart from the rows already stale, listed exactly below: fixing those
means editing the table itself, and then this list shrinks with it.
"""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Rows that name a method gone from its class, as ``(class path,
#: method)``: the fast-forward window and the quiescent tick were folded
#: into the kernel's span replay, and the buddy lost its per-range
#: free-page count.
STALE = {
    ("repro.sim.kernel:EpochKernel", "_fast_forward_window"),
    ("repro.policies.greendimm:GreenDIMMPolicy", "tick_quiescent"),
    ("repro.policies.base:PeriodicPolicy", "tick_quiescent"),
    ("repro.os.buddy:BuddyAllocator", "free_pages_in_range"),
}


def _layer_table():
    path = ROOT / "benchmarks" / "e2e" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_e2e_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_TABLE


def _resolve(path):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def test_every_layer_row_names_a_defined_method():
    table = _layer_table()
    timed = {(_resolve(path), method) for _layer, path, methods in table
             for method in methods}
    missing = set()
    for _layer, path, methods in table:
        cls = _resolve(path)
        for method in methods:
            # An inherited method is timed once, on the class that
            # defines it, so it counts only if that class has a row too.
            owner = next((k for k in cls.__mro__ if method in vars(k)), None)
            if owner is not cls and (owner, method) not in timed:
                missing.add((path, method))
    assert sorted(missing - STALE) == [], (
        "renamed or deleted: the benchmark would time nothing for these")
    assert sorted(STALE - missing) == [], (
        "defined again: drop the row from STALE")


def test_the_event_chain_layers_are_covered():
    """The hot-plug and daemon rows this table exists to time."""
    rows = {(path, method) for _layer, path, methods in _layer_table()
            for method in methods}
    for row in (("repro.os.hotplug:MemoryBlockManager", "offline_block"),
                ("repro.os.hotplug:MemoryBlockManager", "online_block"),
                ("repro.core.daemon:GreenDIMMDaemon", "monitor_once"),
                ("repro.os.mm:PhysicalMemoryManager", "isolate_block")):
        assert row in rows
