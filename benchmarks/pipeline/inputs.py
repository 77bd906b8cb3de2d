"""Set-up: generate each workload's inputs from the seed.

The parent process generates inputs once per repetition series, writes them
to a work directory inside the checkout and hands the path to the child
processes that run the timed regions; the program under test only ever sees
generated inputs, never the seed logic.  ``setup_s`` is the time this module
takes, so work a later change moves out of the timed region into input
preparation shows up there.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import pickle
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.corpus.builder import CorpusBuilder
from repro.corpus.packages import PACKAGES_BY_NAME, VariantSpec
from repro.hashing.ssdeep import FuzzyHasher
from repro.hpcsim.cluster import Cluster
from repro.util.rng import SeededRNG
from repro.workload.campaign import CampaignConfig, DeploymentCampaign, iter_profile_jobs
from repro.workload.profiles import DEFAULT_PROFILES

from .trace import PROBE_EVERY_DATAGRAMS, Laps

#: The developer account the churn workload builds and runs as.
CHURN_USER = "user_1"
#: Software families the churn binaries belong to (label == package name).
CHURN_FAMILIES: tuple[str, ...] = ("icon", "LAMMPS")


@dataclass(frozen=True)
class Sizes:
    """How much work a repetition does."""

    scale: float          #: campaign scale (fraction of the paper's job counts)
    binaries: int         #: freshly built churn binaries
    text_size: int        #: ``.text`` bytes of a churn binary
    steady_refreshes: int  #: dashboard refreshes against a finished store
    identify_rounds: int  #: searches built per repetition (``identify_s`` is their median)


#: The one size every run and the committed baseline use: the smallest
#: campaign (every job template once: 26 jobs, ~4.8k processes, ~25k
#: datagrams), so that a 20 s run holds the five repetitions a median needs.
SIZES = Sizes(scale=0.0, binaries=120, text_size=32768, steady_refreshes=30,
              identify_rounds=15)


# ---------------------------------------------------------------------- #
# the one knob filter
# ---------------------------------------------------------------------- #
def accepted_knobs(target: Callable[..., Any], dropped: list[str],
                   **knobs: Any) -> dict[str, Any]:
    """``knobs`` minus the names ``target`` no longer accepts.

    Every configuration value the benchmark passes into ``src/`` goes through
    here.  A name that has disappeared from the dataclass or signature is
    dropped and recorded in ``dropped`` (printed as ``dropped_knobs``), so a
    change that deletes a knob does not have to edit the benchmark.
    """
    if dataclasses.is_dataclass(target):
        known = {f.name for f in dataclasses.fields(target) if f.init}
    else:
        known = set(inspect.signature(target).parameters)
    kept = {}
    for name, value in knobs.items():
        if name in known:
            kept[name] = value
        else:
            label = f"{getattr(target, '__name__', target)}.{name}"
            if label not in dropped:
                dropped.append(label)
    return kept


def new_campaign(seed: int, sizes: Sizes, dropped: list[str], *, rollups: bool,
                 on_job: Callable[[int], None] | None = None) -> DeploymentCampaign:
    """The benchmark's campaign: lossless, streaming ingest, serial driver."""
    config = CampaignConfig(**accepted_knobs(
        CampaignConfig, dropped, scale=sizes.scale, seed=seed, loss_rate=0.0,
        ingest_mode="streaming", keep_raw_messages=False, rollups=rollups))
    # The profiles are read from this module at call time: the smoke test runs
    # a smaller campaign by patching the name, not through a size of its own.
    return DeploymentCampaign(config=config, profiles=DEFAULT_PROFILES, on_job=on_job)


# ---------------------------------------------------------------------- #
# reference digests
# ---------------------------------------------------------------------- #
def record_set_digest(records: list[Any]) -> str:
    """Order-independent SHA-256 of a consolidated record set."""
    rows = sorted(repr(dataclasses.astuple(record)) for record in records)
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# per-workload generators
# ---------------------------------------------------------------------- #
def _campaign_inputs(seed: int, sizes: Sizes, laps: Laps) -> dict[str, Any]:
    """The campaign generates its own corpus; set-up only derives the plan."""
    dropped: list[str] = []
    campaign = new_campaign(seed, sizes, dropped, rollups=True)
    campaign.prepare()
    laps.lap("build")
    planned = 0
    for profile in campaign.profiles:
        job_rng = campaign.rng.fork("jobs", profile.username)
        planned += sum(1 for _ in iter_profile_jobs(campaign.config, profile, job_rng))
    return {"planned_jobs": planned}


def _stream_inputs(seed: int, sizes: Sizes, laps: Laps) -> dict[str, Any]:
    """Capture the campaign's datagram stream, job boundaries and records."""
    dropped: list[str] = []
    stream: list[bytes] = []
    boundaries: list[int] = []

    def on_job(_count: int) -> None:
        boundaries.append(len(stream))
        laps.lap("capture")

    def capture(datagram: bytes) -> None:
        stream.append(datagram)
        if not len(stream) % PROBE_EVERY_DATAGRAMS:
            laps.probe_inside()

    campaign = new_campaign(seed, sizes, dropped, rollups=False, on_job=on_job)
    campaign.prepare()
    laps.lap("build")
    campaign.channel.subscribe(capture)
    result = campaign.run()
    if not boundaries or boundaries[-1] != len(stream):
        boundaries.append(len(stream))
    return {
        "stream": stream,
        "boundaries": boundaries,
        "user_names": result.user_names,
        "reference_digest": record_set_digest(result.records),
        "reference_count": len(result.records),
    }


def churn_specs(seed: int, sizes: Sizes) -> list[tuple[str, bool, VariantSpec]]:
    """``(family, unknown, spec)`` for every binary of the edit-compile-run loop.

    Families alternate in blocks of ten and the tenth of each block is
    installed as ``a.out`` under ``/scratch`` (no derivable label), so both
    families contribute unknowns.  The seeded version string lands in the
    image's source and strings, which makes every build a distinct file.
    """
    rng = random.Random(seed)
    specs = []
    for index in range(sizes.binaries):
        family = CHURN_FAMILIES[(index // 10) % len(CHURN_FAMILIES)]
        unknown = index % 10 == 9
        base = PACKAGES_BY_NAME[family].variants[0]
        specs.append((family, unknown, VariantSpec(
            variant_id=f"churn-{index:04d}",
            version=f"dev.{rng.getrandbits(32):08x}",
            compilers=base.compilers,
            patch_level=index % 40,
            text_size=sizes.text_size,
            filename="a.out" if unknown else None,
            subdir=f"/scratch/{{project}}/{{user}}/build_{index:04d}" if unknown else "",
        )))
    return specs


def _churn_inputs(seed: int, sizes: Sizes, laps: Laps) -> dict[str, Any]:
    """Build the churn images and the FILE_H each must be collected with."""
    cluster = Cluster()
    corpus = CorpusBuilder(cluster, rng=SeededRNG(seed).fork("corpus"))
    corpus.install_base_system()
    user = cluster.add_user(CHURN_USER)
    hasher = FuzzyHasher()
    binaries = []
    for family, unknown, spec in churn_specs(seed, sizes):
        installed = corpus.install_variant(PACKAGES_BY_NAME[family], spec, user)
        image = cluster.filesystem.read(installed.path)
        binaries.append({
            "family": family, "unknown": unknown, "path": installed.path,
            "image": image, "modules": installed.required_modules,
            "file_h": str(hasher.hash(image)),
        })
        laps.lap("build")
    return {"binaries": binaries}


_GENERATORS: dict[str, Callable[[int, Sizes, Laps], dict[str, Any]]] = {
    "campaign": _campaign_inputs,
    "replay": _stream_inputs,
    "rebuild-churn": _churn_inputs,
    "live-query": _stream_inputs,
}


def generate(workload: str, seed: int, sizes: Sizes, directory: Path) -> tuple[Path, Laps]:
    """Generate ``workload``'s inputs into ``directory``.

    Returns the file and the laps of the set-up: their sum is a ``setup_s``
    sample, the ``build`` span the part spent building the corpus or the
    churn images.
    """
    laps = Laps()
    inputs = _GENERATORS[workload](seed, sizes, laps)
    inputs.update(workload=workload, seed=seed, sizes=sizes)
    path = directory / f"{workload}-seed{seed}.inputs"
    with path.open("wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    laps.lap("write")
    return path, laps


def load(path: Path) -> dict[str, Any]:
    """Read inputs back (only ever files :func:`generate` wrote)."""
    with path.open("rb") as handle:
        return pickle.load(handle)
