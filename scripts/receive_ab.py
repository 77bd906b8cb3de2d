#!/usr/bin/env python3
"""Time the receive path of two source trees in one process, interleaved.

``python scripts/receive_ab.py A_TREE B_TREE [--rounds N] [--seed S]`` loads
each tree's ``src/repro`` as its own modules (``A_TREE`` twice) and captures
the pipeline benchmark's ``replay`` stream with each.  Each round, in turn,
every set ingests it into a fresh store with gold attached, ``finalize``
included (the window); runs ``decode_row`` over it alone; and ingests it in
``live-query``'s slices, each timed and then an untimed ``snapshot_delta``
(what ``cold_start_ms_p50`` times).  It prints each set's medians and their
median ratio to A in the same round, A' (A again) first: how far two
identical trees read apart here, the floor under which B/A says nothing.
The record sets must be equal, or it stops.
"""

import argparse
import gc
import importlib
import statistics
import sys
from dataclasses import astuple
from pathlib import Path
from time import perf_counter


def _swap_in(modules: dict) -> dict:
    """Make ``modules`` the ``repro`` package later imports resolve to;
    returns the one it replaces."""
    old = {name: sys.modules.pop(name) for name in list(sys.modules)
           if name.partition(".")[0] == "repro"}
    sys.modules.update(modules)
    return old


def load(tree: Path, seed: int) -> dict:
    """One tree's modules, the stream its own sender sends, and where
    ``live-query`` cuts it: every 400 datagrams and at every job boundary."""
    sys.path.insert(0, str(tree / "src"))
    try:
        modules = {name: importlib.import_module(f"repro.{name}") for name in (
            "workload.campaign", "workload.profiles", "db.store", "db.tiered",
            "ingest.incremental", "transport.messages")}
    finally:
        sys.path.pop(0)
    campaign_module = modules["workload.campaign"]
    stream, cuts = [], []

    def on_job(_count: int) -> None:    # as the benchmark's ``stream_cuts``
        cuts.extend([*range((cuts or [0])[-1] + 400, len(stream), 400), len(stream)])

    campaign = campaign_module.DeploymentCampaign(
        config=campaign_module.CampaignConfig(scale=0.0, seed=seed, loss_rate=0.0),
        profiles=modules["workload.profiles"].DEFAULT_PROFILES, on_job=on_job)
    campaign.prepare()
    campaign.channel.subscribe(stream.append)
    user_names = campaign.run().user_names
    if cuts[-1:] != [len(stream)]:
        on_job(0)
    return {**modules, "stream": stream, "cuts": cuts, "user_names": user_names,
            "all": _swap_in({})}


def replay(tree: dict) -> tuple[tuple[float, float, float], list]:
    """µs a datagram of the window, the median slice's ms, µs a datagram of
    ``decode_row``, and the records."""
    _swap_in(tree["all"])
    gc.collect()    # every set starts from a collected heap
    stream = tree["stream"]
    stores = [tree["db.store"].MessageStore() for _ in range(2)]
    for store in stores:
        store.attach_tiered(tree["db.tiered"].TieredStore(user_names=tree["user_names"]))
    ingest, sliced = map(tree["ingest.incremental"].IncrementalConsolidator, stores)
    handle, decode_row = ingest.handle_datagram, tree["transport.messages"].decode_row
    start = perf_counter()
    for datagram in stream:
        handle(datagram)
    records = ingest.finalize()
    middle = perf_counter()
    for datagram in stream:
        decode_row(datagram)
    end = perf_counter()
    handle, slices, low, cursor = sliced.handle_datagram, [], 0, 0
    for high in tree["cuts"]:
        begin = perf_counter()
        for datagram in stream[low:high]:
            handle(datagram)
        slices.append(perf_counter() - begin)
        cursor, low = sliced.snapshot_delta(cursor).cursor, high
    return ((middle - start) * 1e6 / len(stream), statistics.median(slices) * 1e3,
            (end - middle) * 1e6 / len(stream)), records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs=2, metavar="TREE")
    parser.add_argument("--rounds", type=int, default=31)
    parser.add_argument("--seed", type=int, default=2025)
    args = parser.parse_args(argv)
    trees = [load(tree, args.seed) for tree in (args.trees[0], *args.trees)]
    print(f"{len(trees[0]['stream']):,} datagrams, {len(trees[0]['cuts'])} slices, seed {args.seed}")
    rounds, records = [], {}
    for round_ in range(args.rounds):
        rounds.append([None] * 3)
        for index in (round_ % 3, (round_ + 1) % 3, (round_ + 2) % 3):
            rounds[-1][index], built = replay(trees[index])
            records.setdefault(index, sorted(map(astuple, built)))
    if not records[0] == records[1] == records[2]:
        sys.exit("the sets built different records")
    print(f"{'set':<4}" + "".join(f"{column:>11}{'ratio':>8}"
                                  for column in ("window µs", "slice ms", "decode µs")))
    for index, name in ((1, "A'"), (2, "B"), (0, "A")):
        print(f"{name:<4}" + "".join(
            f"{statistics.median(r[index][c] for r in rounds):>11.3f}"
            f"{statistics.median(r[index][c] / r[0][c] for r in rounds):>8.3f}"
            for c in (0, 1, 2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
