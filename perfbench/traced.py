"""Run the widthspan CLI once with spans around the public functions of each layer.

Usage: python3 perfbench/traced.py SPANS.json <widthspan arguments...>

The spans wrap module attributes as the CLI looks them up, so the program's
own code is unchanged.  Spans (name, start, end, parent index) and counters
are kept in memory and written to SPANS.json when the CLI returns; the exit
code is the CLI's.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, span name).  One function may be reached through
# several modules; every site records under the same name.
SITES = [
    ("widthspan.cli", "main", "cli.main"),
    ("widthspan.cli", "load_graph", "graph.load_graph"),
    ("widthspan.cli", "load_arrangement", "arrangement.load_arrangement"),
    ("widthspan.cli", "edge_spreads", "arrangement.edge_spreads"),
    ("widthspan.lowstretch", "edge_spreads", "arrangement.edge_spreads"),
    ("widthspan.lowstretch", "split_heights", "arrangement.split_heights"),
    ("widthspan.lowstretch", "padded_split_heights", "arrangement.padded_split_heights"),
    ("widthspan.kernel", "tree_stretch", "kernel.tree_stretch"),
    ("widthspan.cli", "build_tree", "lowstretch.build_tree"),
    ("widthspan.cli", "build_tree_padded", "lowstretch.build_tree_padded"),
    ("widthspan.distribution", "build_tree_padded", "lowstretch.build_tree_padded"),
    ("widthspan.cli", "explicit_distribution", "distribution.explicit_distribution"),
    ("widthspan.cli", "load_td", "twdp.load_td"),
    ("widthspan.cli", "dp_min_stretch", "twdp.dp_min_stretch"),
    ("widthspan.twdp.solver", "make_nice", "twdp.make_nice"),
    ("widthspan.twdp.solver", "introduce_step", "twdp.introduce_step"),
    ("widthspan.twdp.solver", "forget_step", "twdp.forget_step"),
    ("widthspan.twdp.solver", "join_step", "twdp.join_step"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            self.on_return(name, args, result)
            return result

        return traced

    def on_return(self, name: str, args: tuple, result) -> None:
        """Work counts read at the layer boundary."""
        if name == "kernel.tree_stretch":
            self.count("kernel.edges_in", len(args[1]))
        elif name in ("twdp.introduce_step", "twdp.forget_step", "twdp.join_step"):
            self.count("twdp.entries." + name[len("twdp."):-len("_step")], len(result))
        elif name == "twdp.dp_min_stretch":
            sizes = result.table_sizes
            self.count("twdp.table_entries", sum(sizes))
            self.count("twdp.max_table_entries", max(sizes))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = []
    for module_name, attr, name in SITES:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        else:
            missing.append(f"{module_name}.{attr}")
    if missing:
        print("traced: not found, not traced: " + ", ".join(missing), file=sys.stderr)
    cli = importlib.import_module("widthspan.cli")
    try:
        status = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
