"""Regenerate ``grid.json``, the compile workload's committed input grid.

The grid is every ``repro-tools`` zoo algorithm x NDv4 nodes {1, 2, 4}
x channels {1, 2, 4} x instances {1, 2, 4} x protocol {Simple, LL,
LL128}. Each entry is built and compiled once, exactly as one compile
op does it. Entries that compile are kept with their instruction count
and XML size; entries the compiler rejects are listed under
``rejected`` with the error, so no benchmark op is expected to fail.

Run from the repository root::

    PYTHONPATH=src python benchmarks/ledger/grid.py
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from repro.core.compiler import CompilerOptions, compile_program
from repro.tools.cli import ALGORITHMS
from repro.topology import ndv4

GRID_PATH = Path(__file__).resolve().parent / "grid.json"
NODES = (1, 2, 4)
CHANNELS = (1, 2, 4)
INSTANCES = (1, 2, 4)
PROTOCOLS = ("Simple", "LL", "LL128")


def build_program(entry):
    """Trace one grid entry with the CLI's zoo builder."""
    args = argparse.Namespace(
        ranks=8 * entry["nodes"], nodes=entry["nodes"],
        channels=entry["channels"], instances=entry["instances"],
        protocol=entry["protocol"])
    return ALGORITHMS[entry["algorithm"]](args)


@functools.lru_cache(maxsize=None)
def _sm_count(nodes: int) -> int:
    return ndv4(nodes).machine.sm_count


def compile_options(entry, cache=None):
    """The CLI's options for the entry's topology (SM limit applied)."""
    return CompilerOptions(max_threadblocks=_sm_count(entry["nodes"]),
                           cache=cache)


def main() -> int:
    entries, rejected = [], []
    for algorithm in sorted(ALGORITHMS):
        for nodes in NODES:
            for channels in CHANNELS:
                for instances in INSTANCES:
                    for protocol in PROTOCOLS:
                        entry = {"algorithm": algorithm, "nodes": nodes,
                                 "channels": channels,
                                 "instances": instances,
                                 "protocol": protocol}
                        t0 = time.perf_counter()
                        try:
                            algo = compile_program(build_program(entry),
                                                   compile_options(entry))
                            xml = algo.ir.to_xml()
                        except Exception as error:  # noqa: BLE001
                            rejected.append(dict(
                                entry, error=type(error).__name__,
                                message=str(error)[:160]))
                            continue
                        entry["instructions"] = algo.ir.instruction_count()
                        entry["xml_bytes"] = len(xml)
                        entry["probe_ms"] = round(
                            (time.perf_counter() - t0) * 1e3, 1)
                        entries.append(entry)
        print(f"{algorithm}: {len(entries)} kept, {len(rejected)} rejected",
              file=sys.stderr)
    GRID_PATH.write_text(json.dumps(
        {"entries": entries, "rejected": rejected}, indent=1) + "\n")
    print(f"wrote {GRID_PATH}: {len(entries)} entries, "
          f"{len(rejected)} rejected", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
