"""The opt-in deployment campaign runner.

:class:`DeploymentCampaign` stands up the whole reproduction in one call:

1. build a cluster and install the corpus (libraries, system tools, Python,
   ``siren.so``, per-user scientific packages),
2. deploy SIREN (a :class:`~repro.core.framework.SirenFramework`: message
   store, channel, ingest front, sender, collector hook),
3. execute the scaled campaign: every user profile submits its jobs through
   the Slurm-like scheduler on one serial driver, each process is hooked and
   collected, and its UDP messages are consolidated into a per-process
   record while the jobs run.

The result object carries everything the analysis layer and the benchmark
harness need: the records, the store, the anonymised user mapping, the corpus
manifest, and the transport/collection counters.  Campaigns can also be
observed mid-run through :meth:`DeploymentCampaign.snapshot` (e.g. from the
``on_job`` callback), which feeds the live record set straight into
:class:`~repro.core.pipeline.AnalysisPipeline`.
"""

from __future__ import annotations

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
from repro.ingest.sharded import ProcessDelta, ShardedIngest
from repro.util.rng import SeededRNG
from repro.util.timing import StageTimer
from repro.workload.profiles import (
    BASH_ENVIRONMENT_QUIRKS,
    DEFAULT_PROFILES,
    UserProfile,
    packages_used_by,
)
from repro.workload.scenarios import ScenarioBuilder


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
    coverage = config.ensure_template_coverage
    quirk_fraction = config.quirk_fraction
    for job_index in range(job_count):
        if coverage and job_index < len(templates):
            # First pass: round-robin so every template runs at least once.
            template = templates[job_index]
        else:
            template = job_rng.weighted_choice(templates, weights)
        quirk = None
        if quirk_key and (job_index == 0
                          or job_rng.random() < quirk_fraction):
            # The first job of a "quirk" user always carries the altered
            # environment so the rare bash variants of Table 4 are
            # present even at very small campaign scales.
            quirk = quirk_key
        yield job_index, template, quirk


@dataclass(frozen=True)
class CampaignConfig(SirenConfig):
    """A deployment's knobs plus what the job driver needs on top."""

    scale: float = 0.01            #: fraction of the paper's job counts to run
    quirk_fraction: float = 0.15   #: fraction of a quirk user's jobs with the alt environment
    min_jobs_per_user: int = 1
    #: guarantee every job template of every user runs at least once, so the
    #: rare-but-load-bearing cases (the UNKNOWN icon runs, the GROMACS sharing)
    #: are present even at very small scales.
    ensure_template_coverage: bool = True

    def jobs_for(self, profile: UserProfile) -> int:
        """Number of jobs this profile submits at the configured scale."""
        minimum = self.min_jobs_per_user
        if self.ensure_template_coverage:
            minimum = max(minimum, len(profile.templates))
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
    ingest: ShardedIngest | None = None  #: the ingest front (counters)
    decode_errors: int = 0     #: undecodable datagrams dropped by the ingest path
    quarantined: int = 0       #: of those, raw bytes captured in the forensic ring
    #: what the injected channel faults did (``fault_plan`` runs only)
    fault_counters: dict[str, int] | None = None
    #: the store-fault hook, when the plan armed one (its counters say how
    #: many transient/disk-full errors the retry layer had to absorb)
    store_fault_injector: StoreFaultInjector | None = None
    #: inclusive wall seconds per pipeline stage (``{stage: {"seconds", "calls"}}``,
    #: sorted top-cost-first)
    stage_timings: dict[str, dict[str, float]] = field(default_factory=dict)
    #: the tiered record store (``rollups=True`` runs only): silver record
    #: shards + gold rollups, kept in sync with the ``processes`` table
    tiered: TieredStore | None = None

    @property
    def incomplete_fraction(self) -> float:
        """Fraction of consolidated records flagged incomplete (UDP loss effect)."""
        if not self.records:
            return 0.0
        return sum(record.incomplete for record in self.records) / len(self.records)

    def statistics(self) -> dict[str, int | float]:
        """Flat counter view of the run, for profiling and benchmarks.

        Includes the cache-effectiveness counters of the collection-side
        hashing path (:class:`~repro.collector.fuzzy.ArtifactHasher` path and
        content caches, the signature compare LRU) so a profiling run can
        tell "cache working" from "cache bypassed".
        """
        hasher = self.collector.hasher
        compare_info = hasher.hasher.compare_cache_info()
        sender = self.collector.sender
        stats: dict[str, int | float] = {
            "jobs_run": self.jobs_run,
            "processes_run": self.processes_run,
            "records": len(self.records),
            "incomplete_fraction": self.incomplete_fraction,
            "processes_collected": self.collector.processes_collected,
            "processes_skipped": self.collector.processes_skipped,
            "section_errors": self.collector.section_errors,
            "hashes_computed": hasher.hashes_computed,
            "hash_cache_hits": hasher.cache_hits,
            "hash_content_cache_hits": hasher.content_cache_hits,
            "compare_cache_hits": compare_info.hits,
            "compare_cache_misses": compare_info.misses,
            "messages_sent": sender.messages_sent,
            "datagrams_sent": sender.datagrams_sent,
            "send_errors": sender.send_errors,
            "decode_errors": self.decode_errors,
            "quarantined": self.quarantined,
        }
        hash_lookups = (hasher.hashes_computed + hasher.cache_hits
                        + hasher.content_cache_hits)
        stats["hash_cache_hit_rate"] = (
            (hasher.cache_hits + hasher.content_cache_hits) / hash_lookups
            if hash_lookups else 0.0)
        dropped = getattr(self.channel, "datagrams_dropped", None)
        if dropped is not None:
            stats["datagrams_dropped"] = dropped
        if self.ingest is not None:
            for key, value in self.ingest.statistics().items():
                stats[f"ingest_{key}"] = value
        if self.tiered is not None:
            for key, value in self.tiered.statistics().items():
                stats[key] = value
        return stats


@dataclass
class DeploymentCampaign:
    """Run the synthetic LUMI opt-in campaign."""

    config: CampaignConfig = field(default_factory=CampaignConfig)
    profiles: tuple[UserProfile, ...] = DEFAULT_PROFILES
    #: called after every submitted job with the running job count -- the
    #: hook point for mid-run :meth:`snapshot` calls and progress reporting.
    on_job: Callable[[int], None] | None = None
    #: stage stopwatch; always on (sub-microsecond per section).  Surfaced as
    #: :attr:`CampaignResult.stage_timings`; pass a shared timer to aggregate
    #: across campaigns.
    timer: StageTimer = field(default_factory=StageTimer, repr=False)
    cluster: Cluster = field(init=False)
    manifest: CorpusManifest = field(init=False)
    deployment: SirenFramework = field(init=False, repr=False)
    collector: SirenCollector = field(init=False)
    store: MessageStore = field(init=False)
    channel: DeploymentChannel = field(init=False)
    ingest: ShardedIngest = field(init=False)
    tiered: TieredStore | None = field(init=False, default=None)
    store_fault_injector: StoreFaultInjector | None = field(init=False, default=None)
    scenario_builder: ScenarioBuilder = field(init=False)
    rng: SeededRNG = field(init=False)
    _prepared: bool = False

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Build the cluster, corpus and SIREN deployment (idempotent)."""
        if self._prepared:
            return
        self.config.validate()  # before the corpus is built, not after
        with self.timer.section("campaign.prepare"):
            self._prepare_deployment()
        self._prepared = True

    def _prepare_deployment(self) -> None:
        self.rng = SeededRNG(self.config.seed)
        self.cluster = Cluster()
        self.cluster.timer = self.timer
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
            self.config, timer=self.timer, user_names=self._user_names())
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
            with self.timer.section("campaign.finalize"):
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
            ingest=self.ingest,
            decode_errors=self.ingest.decode_errors,
            quarantined=self.ingest.quarantined,
            fault_counters=fault_counters,
            store_fault_injector=self.store_fault_injector,
            stage_timings=self.timer.as_dict(),
            tiered=self.tiered,
        )

    def close(self) -> None:
        """Release the prepared deployment (see :meth:`SirenFramework.close`).

        :meth:`run` does this itself; call it for a campaign that was
        prepared but never run.
        """
        if self._prepared:
            self.deployment.close()

    def snapshot(self) -> list[ProcessRecord]:
        """The records consolidated so far, mid-campaign (see
        :meth:`SirenFramework.snapshot`).  Call it from the :attr:`on_job`
        hook for live Table-2/Table-7 analyses."""
        return self.deployment.snapshot()

    def snapshot_delta(self, cursor: int = 0) -> ProcessDelta:
        """Only the records that changed since ``cursor`` (see
        :meth:`SirenFramework.snapshot_delta`)."""
        return self.deployment.snapshot_delta(cursor)

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
        with self.timer.section("campaign.jobs"):
            for profile in self.profiles:
                user = cluster.users.get(profile.username)
                if lossy is not None:
                    # Per-user loss streams: a profile's drop decisions
                    # depend only on that profile, not on who ran before it.
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
