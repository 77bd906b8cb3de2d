"""The opt-in deployment campaign runner.

:class:`DeploymentCampaign` stands up the whole reproduction in one call:

1. build a cluster and install the corpus (libraries, system tools, Python,
   ``siren.so``, per-user scientific packages),
2. deploy SIREN (a :class:`~repro.core.framework.SirenFramework`: message
   store, channel, ingest object, sender, collector hook),
3. execute the scaled campaign: every user profile submits its jobs through
   the Slurm-like scheduler on one serial driver, each process is hooked and
   collected, and its UDP messages are consolidated into a per-process
   record while the jobs run.

The result object carries everything the analysis layer and the benchmark
harness need: the records, the store, the anonymised user mapping, the corpus
manifest, and the transport/collection counters.  Campaigns can also be
observed mid-run, from the ``on_job`` callback, through the deployment the
campaign holds (``campaign.deployment.snapshot()``, whose records feed
:class:`~repro.core.pipeline.AnalysisPipeline`) or through
:meth:`DeploymentCampaign.live_analysis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.live import LiveAnalysis
from repro.collector.hooks import SirenCollector
from repro.core.config import SirenConfig
from repro.core.framework import DeploymentChannel, SirenFramework
from repro.corpus.builder import CorpusBuilder, CorpusManifest
from repro.corpus.packages import PACKAGES_BY_NAME
from repro.db.store import MessageStore, ProcessRecord
from repro.db.tiered import TieredStore
from repro.faults.channel import FaultyChannel
from repro.faults.store import StoreFaultInjector
from repro.hpcsim.cluster import Cluster
from repro.ingest.incremental import IncrementalConsolidator
from repro.util.errors import CollectionError
from repro.util.rng import SeededRNG
from repro.workload.profiles import (
    BASH_ENVIRONMENT_QUIRKS,
    DEFAULT_PROFILES,
    UserProfile,
    packages_used_by,
)
from repro.workload.scenarios import ScenarioBuilder

#: Fraction of a quirk user's jobs, after the first, run with the altered
#: environment (the first always is).
QUIRK_FRACTION = 0.15


def iter_profile_jobs(config: CampaignConfig, profile: UserProfile,
                      job_rng: SeededRNG):
    """Yield ``(job_index, template, quirk_module)`` for one profile's jobs.

    This generator *is* the job plan: :meth:`DeploymentCampaign._run_jobs`
    iterates it, and so can a caller that needs to know the plan without
    running it (how many jobs, which templates), drawing exactly the same
    RNG sequence.  ``job_rng`` must be the profile's
    ``rng.fork("jobs", username)`` stream.
    """
    job_count = config.jobs_for(profile)
    templates = list(profile.templates)
    weights = profile.template_weights()
    quirk_key = BASH_ENVIRONMENT_QUIRKS.get(profile.username)
    for job_index in range(job_count):
        if job_index < len(templates):
            # First pass: round-robin so every template runs at least once.
            template = templates[job_index]
        else:
            template = job_rng.weighted_choice(templates, weights)
        quirk = None
        if quirk_key and (job_index == 0
                          or job_rng.random() < QUIRK_FRACTION):
            # The first job of a "quirk" user always carries the altered
            # environment so the rare bash variants of Table 4 are
            # present even at very small campaign scales.
            quirk = quirk_key
        yield job_index, template, quirk


@dataclass(frozen=True)
class CampaignConfig(SirenConfig):
    """A deployment's knobs plus what the job driver needs on top.

    Every job template of every user runs at least once, whatever the
    ``scale``, so the rare-but-load-bearing cases (the UNKNOWN icon runs,
    the GROMACS sharing) are present even at very small scales.
    """

    scale: float = 0.01            #: fraction of the paper's job counts to run
    min_jobs_per_user: int = 1

    def validate(self) -> None:
        """:meth:`SirenConfig.validate`, plus a finite, non-negative ``scale``
        and a non-negative ``min_jobs_per_user``."""
        super().validate()
        if not 0.0 <= self.scale < math.inf:  # also refuses nan
            raise CollectionError(
                f"scale must be a finite number >= 0, got {self.scale!r}")
        if self.min_jobs_per_user < 0:
            raise CollectionError(
                f"min_jobs_per_user must be at least 0, got {self.min_jobs_per_user!r}")

    def jobs_for(self, profile: UserProfile) -> int:
        """Number of jobs this profile submits at the configured scale."""
        minimum = max(self.min_jobs_per_user, len(profile.templates))
        return max(minimum, round(profile.job_count * self.scale))


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    records: list[ProcessRecord]
    store: MessageStore
    user_names: dict[int, str]
    manifest: CorpusManifest
    cluster: Cluster
    collector: SirenCollector
    channel: DeploymentChannel
    jobs_run: int
    processes_run: int
    #: the deployment the campaign ran (its counters underlie :meth:`statistics`)
    deployment: SirenFramework
    ingest: IncrementalConsolidator | None = None  #: the ingest object (counters)
    decode_errors: int = 0     #: undecodable datagrams dropped by the ingest path
    quarantined: int = 0       #: of those, raw bytes captured in the forensic ring
    #: what the injected channel faults did (``fault_plan`` runs only)
    fault_counters: dict[str, int] | None = None
    #: the store-fault hook, when the plan armed one (its counters say how
    #: many transient/disk-full errors the retry layer had to absorb)
    store_fault_injector: StoreFaultInjector | None = None
    #: the gold rollups (``rollups=True`` runs only), kept in step with the
    #: ``processes`` table
    tiered: TieredStore | None = None

    @property
    def incomplete_fraction(self) -> float:
        """Fraction of consolidated records flagged incomplete (UDP loss effect)."""
        if not self.records:
            return 0.0
        return sum(record.incomplete for record in self.records) / len(self.records)

    def statistics(self) -> dict[str, int | float]:
        """The deployment's counters (:meth:`SirenFramework.statistics`) plus
        the campaign's own: its size, and the cache-effectiveness counters of
        the collection-side hashing (the
        :class:`~repro.collector.fuzzy.ArtifactHasher` path and content
        caches, the signature compare LRU), which tell "cache working" from
        "cache bypassed".
        """
        hasher = self.collector.hasher
        compare_info = hasher.hasher.compare_cache_info()
        hits = hasher.cache_hits + hasher.content_cache_hits
        lookups = hits + hasher.hashes_computed
        return {
            **self.deployment.statistics(),
            "jobs_run": self.jobs_run,
            "processes_run": self.processes_run,
            "records": len(self.records),
            "incomplete_fraction": self.incomplete_fraction,
            "hashes_computed": hasher.hashes_computed,
            "hash_cache_hits": hasher.cache_hits,
            "hash_content_cache_hits": hasher.content_cache_hits,
            "hash_cache_hit_rate": hits / lookups if lookups else 0.0,
            "compare_cache_hits": compare_info.hits,
            "compare_cache_misses": compare_info.misses,
            "messages_sent": self.collector.sender.messages_sent,
        }


@dataclass
class DeploymentCampaign:
    """Run the synthetic LUMI opt-in campaign."""

    config: CampaignConfig = field(default_factory=CampaignConfig)
    profiles: tuple[UserProfile, ...] = DEFAULT_PROFILES
    #: called after every submitted job with the running job count -- the
    #: hook point for mid-run ``deployment.snapshot()`` calls and progress
    #: reporting.
    on_job: Callable[[int], None] | None = None
    cluster: Cluster = field(init=False)
    manifest: CorpusManifest = field(init=False)
    deployment: SirenFramework = field(init=False, repr=False)
    collector: SirenCollector = field(init=False)
    store: MessageStore = field(init=False)
    channel: DeploymentChannel = field(init=False)
    ingest: IncrementalConsolidator = field(init=False)
    tiered: TieredStore | None = field(init=False, default=None)
    store_fault_injector: StoreFaultInjector | None = field(init=False, default=None)
    scenario_builder: ScenarioBuilder = field(init=False)
    rng: SeededRNG = field(init=False)
    _prepared: bool = field(init=False, default=False)

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Build the cluster, corpus and SIREN deployment (idempotent)."""
        if self._prepared:
            return
        self.config.validate()  # before the corpus is built, not after
        self._prepare_deployment()
        self._prepared = True

    def _prepare_deployment(self) -> None:
        self.rng = SeededRNG(self.config.seed)
        self.cluster = Cluster()
        corpus = CorpusBuilder(self.cluster, rng=self.rng.fork("corpus"))
        self.manifest = corpus.install_base_system()

        # Users and their software installs (registration order fixes user_N labels).
        for profile in self.profiles:
            user = self.cluster.add_user(profile.username)
            for package_name in packages_used_by(profile):
                corpus.install_package(PACKAGES_BY_NAME[package_name], user)

        # Users are registered above, so the gold user dimension can bake in
        # the anonymised labels.
        deployment = self.deployment = SirenFramework(
            self.config, user_names=self._user_names())
        self.store = deployment.store
        self.channel = deployment.channel
        self.store_fault_injector = deployment.store_fault_injector
        self.ingest = deployment.ingest
        self.tiered = deployment.tiered
        self.collector = deployment.deploy(
            self.cluster, siren_library_path=self.manifest.siren_library)
        self.scenario_builder = ScenarioBuilder(self.cluster, self.manifest,
                                                rng=self.rng.fork("scenarios"))

    def _user_names(self) -> dict[int, str]:
        """Profiles already carry anonymised names (user_1 ... user_12), so
        the UID mapping simply reflects the registered usernames."""
        return {user.uid: user.username for user in self.cluster.users.all()}

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        """Execute the campaign and return the consolidated result."""
        self.prepare()
        deployment = self.deployment
        try:
            jobs_run = self._run_jobs()
            records = deployment.finalize()
        finally:
            self.close()  # loopback sockets; caches stay warm
        fault_counters = (self.channel.fault_counters()
                          if isinstance(self.channel, FaultyChannel) else None)
        return CampaignResult(
            config=self.config,
            records=records,
            store=self.store,
            user_names=self._user_names(),
            manifest=self.manifest,
            cluster=self.cluster,
            collector=self.collector,
            channel=self.channel,
            jobs_run=jobs_run,
            processes_run=self.cluster.processes_run,
            deployment=deployment,
            ingest=self.ingest,
            decode_errors=self.ingest.decode_errors,
            quarantined=self.ingest.quarantined,
            fault_counters=fault_counters,
            store_fault_injector=self.store_fault_injector,
            tiered=self.tiered,
        )

    def close(self) -> None:
        """Release the prepared deployment (see :meth:`SirenFramework.close`).

        :meth:`run` does this itself; call it for a campaign that was
        prepared but never run.
        """
        if self._prepared:
            self.deployment.close()

    def live_analysis(self) -> LiveAnalysis:
        """An incrementally updated analysis bound to this campaign's stream.

        Prepares the campaign if needed so the user mapping exists.  Bind it
        before :meth:`run` and call its view methods from the :attr:`on_job`
        hook (see :meth:`SirenFramework.live_analysis`).
        """
        self.prepare()
        return self.deployment.live_analysis(self._user_names())

    def _run_jobs(self) -> int:
        """Submit every profile's jobs through the scheduler; returns the count."""
        cluster = self.cluster
        lossy = self.deployment.lossy_channel
        on_job = self.on_job
        drain = self.deployment.drain
        jobs_run = 0
        for profile in self.profiles:
            user = cluster.users.get(profile.username)
            if lossy is not None:
                # Per-user loss streams: a profile's drop decisions depend
                # only on that profile, not on who ran before it.
                lossy.rng = self.rng.fork("udp-loss", profile.username)
            job_rng = self.rng.fork("jobs", profile.username)
            for job_index, template, quirk in iter_profile_jobs(
                    self.config, profile, job_rng):
                script = self.scenario_builder.build_job_script(
                    profile, template, user, job_index=job_index,
                    quirk_module=quirk)
                cluster.run_job(profile.username, script)
                jobs_run += 1
                drain()
                if on_job is not None:
                    on_job(jobs_run)
            # Each user's activity spreads over the campaign window.
            cluster.filesystem.advance_clock(3600)
        return jobs_run
