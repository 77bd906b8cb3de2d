"""The process-parallel campaign driver (``campaign_workers > 1``).

The serial :class:`~repro.workload.campaign.DeploymentCampaign` runs every
user profile's job slice in one OS process.  This module partitions the
profiles across N driver workers, each of which rebuilds the *same* cluster
and corpus (``prepare()`` is deterministic in the config seed), runs only its
assigned profiles, and ships the datagrams its collector emitted back to the
parent, which feeds them into the one real ingest path.

Determinism contract (tested in ``tests/workload/test_parallel_campaign.py``,
documented in ``docs/architecture.md``):

* **Job ids** -- every job id the serial driver would allocate is known up
  front: profile ``i`` consumes exactly ``config.jobs_for(profile_i)`` ids,
  so a worker seeks its scheduler to ``first_job_id + prefix_sum`` before
  running a profile.  Keeping ``first_job_id`` itself untouched preserves the
  round-robin node assignment (``job_id - first_job_id``).
* **Pids** -- each job's pid consumption is a pure function of its template
  (one parent pid per process-spec repetition, one per rank), and template
  selection is replayable from the profile's own ``rng.fork("jobs", user)``
  stream via :func:`~repro.workload.campaign.iter_profile_jobs`.  Workers
  seek the runtime pid counter the same way, modulo the kernel-style pid
  wrap.
* **Clock** -- every job script advances the virtual clock by exactly one
  second (single-step scripts) and every profile adds the one-hour
  between-users gap, so the clock at each profile's start is also a prefix
  sum.  Workers *advance* to the target (never rewind); after every profile
  the planner's prediction is asserted against reality, so any drift fails
  loudly instead of producing subtly shifted timestamps.
* **Inodes** -- the only files created during the job loop are the per-user
  Python scripts (one inode per distinct script revision, replayable from
  the same job plan), so the filesystem's inode counter is seek-able
  exactly like the pid counter.
* **Loss** -- drop decisions come from a per-user RNG fork
  (``rng.fork("udp-loss", username)``), re-seeded at the start of every
  profile by serial and parallel drivers alike, so both lose the same
  datagrams.
* **Ordering** -- each process's datagrams travel in order (a profile runs
  entirely inside one worker, and the feed queue is per-producer FIFO), so
  every consolidated record is field-for-field identical to the serial
  run's.  The *arrival interleaving across users* differs, which makes the
  streaming-mode record list a permutation of the serial one; equality is
  therefore pinned on canonically sorted record lists.

One intentional non-equivalence: hashing *cache* counters.  Every worker
starts with a cold :class:`~repro.collector.fuzzy.ArtifactHasher` cache, so a
binary shared between two workers' profiles is hashed once per worker --
``hashes_computed`` may exceed the serial run's and ``hash_cache_hits`` fall
short by the same amount.  The digests (and hence the records) are identical.

Faults: channel fault plans are rejected at ``prepare()`` (their
reorder/holdback pipeline is ordered over the global stream, which no worker
has); store and ingest-worker faults live in the parent and work unchanged.
With ``transport="socket"`` the parent's loopback socket still feeds its own
receiver, but worker datagrams travel over the feed queue, not the wire.

Supervision is fail-fast (unlike the self-healing ingest pool): a crashed or
stalled driver worker raises :class:`~repro.util.errors.CollectionError`
naming the worker -- the job stream is cheap to re-run, and healing it would
require replaying partially-run profiles.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, replace
from queue import Empty
from typing import TYPE_CHECKING

from repro.util.errors import CollectionError
from repro.util.rng import SeededRNG
from repro.util.timing import StageTimer
from repro.workload.campaign import iter_profile_jobs
from repro.workload.profiles import JobTemplate, UserProfile
from repro.workload.scenarios import SCRIPT_VARIATION_PERIOD

if TYPE_CHECKING:  # circular at runtime: campaign imports this lazily
    from repro.workload.campaign import CampaignConfig, DeploymentCampaign

#: Datagrams buffered in a worker before a batch ships to the parent.
BATCH_DATAGRAMS = 1024
#: Seconds between liveness checks while the parent waits on the queue.
_POLL_INTERVAL = 0.2
#: Queue messages drained per wake-up when coalescing worker datagram
#: batches into one parent ingest call (bounds "job" callback latency).
_DRAIN_LIMIT = 32
#: The runtime's pid counter starts here and wraps like the kernel's pid_max.
_PID_BASE = 1000
_PID_WRAP = 4_194_304
_PID_PERIOD = _PID_WRAP - _PID_BASE + 1
#: Clock seconds consumed per job (single-step scripts) and per profile gap.
_CLOCK_PER_JOB = 1
_CLOCK_PROFILE_GAP = 3600


# ---------------------------------------------------------------------- #
# planning: how many ids/pids/seconds does each profile consume?
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProfilePlan:
    """Resource consumption of one profile's job slice, computed up front."""

    username: str
    jobs: int         #: job ids consumed
    pids: int         #: pid allocations consumed
    clock: int        #: virtual-clock seconds consumed (incl. the profile gap)
    inodes: int       #: filesystem inodes consumed (lazily created scripts)
    job_offset: int   #: prefix sums over the profile order: consumption of
    pid_offset: int   #: every profile before this one
    clock_offset: int
    inode_offset: int


def _template_pid_cost(template: JobTemplate) -> int:
    """Pid allocations one job of ``template`` performs.

    Mirrors :meth:`Cluster.run_job`: one parent pid per process-spec
    repetition plus one pid per rank -- system tools and Python runs are
    single-rank specs, app runs carry their MPI rank count.
    """
    pids = 0
    for _tool, count in template.system_calls:
        pids += count * 2
    for run in template.app_runs:
        pids += run.count * (1 + run.ranks)
    for run in template.python_runs:
        pids += run.count * 2
    return pids


def _profile_inode_cost(username: str, job_plan: list[tuple[int, JobTemplate]]) -> int:
    """Inodes one profile's job slice allocates.

    The only files created during the job loop are the per-user Python
    scripts, one per distinct ``(script_tag, revision)`` key (mirrors
    :meth:`ScenarioBuilder.ensure_script`, whose cache is keyed the same
    way); replacements and ``touch_atime`` reuse the existing inode.
    """
    period = SCRIPT_VARIATION_PERIOD.get(username, 0)
    keys = {
        (run.script_tag, (job_index // period) if period else 0)
        for job_index, template in job_plan
        for run in template.python_runs
    }
    return len(keys)


def plan_profiles(config: "CampaignConfig",
                  profiles: tuple[UserProfile, ...]) -> list[ProfilePlan]:
    """Replay every profile's job plan without running it.

    Uses the same :func:`iter_profile_jobs` generator (and the same
    ``fork("jobs", username)`` RNG stream) as the drivers, so the planned
    template sequence -- and with it the pid count -- is exact, not an
    estimate.
    """
    rng = SeededRNG(config.seed)
    plans: list[ProfilePlan] = []
    job_offset = pid_offset = clock_offset = inode_offset = 0
    for profile in profiles:
        job_rng = rng.fork("jobs", profile.username)
        jobs = pids = 0
        job_plan: list[tuple[int, JobTemplate]] = []
        for index, template, _quirk in iter_profile_jobs(config, profile, job_rng):
            jobs += 1
            pids += _template_pid_cost(template)
            job_plan.append((index, template))
        clock = jobs * _CLOCK_PER_JOB + _CLOCK_PROFILE_GAP
        inodes = _profile_inode_cost(profile.username, job_plan)
        plans.append(ProfilePlan(
            username=profile.username, jobs=jobs, pids=pids, clock=clock,
            inodes=inodes, job_offset=job_offset, pid_offset=pid_offset,
            clock_offset=clock_offset, inode_offset=inode_offset))
        job_offset += jobs
        pid_offset += pids
        clock_offset += clock
        inode_offset += inodes
    return plans


def partition_plans(plans: list[ProfilePlan], workers: int) -> list[list[int]]:
    """Assign profile indices to workers, balancing by planned pid count.

    Greedy longest-processing-time: heaviest profile first onto the least
    loaded worker, ties broken by worker id -- fully deterministic.  Each
    worker's assignment is returned in original profile order (the order it
    will run them).
    """
    order = sorted(range(len(plans)), key=lambda i: (-plans[i].pids, i))
    loads = [0] * workers
    assignments: list[list[int]] = [[] for _ in range(workers)]
    for index in order:
        target = min(range(workers), key=lambda w: (loads[w], w))
        loads[target] += plans[index].pids
        assignments[target].append(index)
    for assignment in assignments:
        assignment.sort()
    return [assignment for assignment in assignments if assignment]


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #
def _seek_cluster(campaign: "DeploymentCampaign", plan: ProfilePlan,
                  base_clock: int, base_inode: int) -> None:
    """Position scheduler/runtime/clock/inodes exactly where the serial
    driver would be at this profile's start."""
    scheduler = campaign.cluster.scheduler
    runtime = campaign.cluster.runtime
    filesystem = campaign.cluster.filesystem
    scheduler._next_job_id = scheduler.first_job_id + plan.job_offset
    runtime._next_pid = _PID_BASE + (plan.pid_offset % _PID_PERIOD)
    filesystem._next_inode = base_inode + plan.inode_offset
    target = base_clock + plan.clock_offset
    if filesystem.clock > target:
        raise CollectionError(
            f"campaign worker planning drift: clock {filesystem.clock} is "
            f"already past profile {plan.username}'s start {target}")
    if filesystem.clock < target:
        filesystem.advance_clock(target - filesystem.clock)


def _check_profile_exit(campaign: "DeploymentCampaign", plan: ProfilePlan,
                        base_clock: int, base_inode: int, jobs_run: int) -> None:
    """Assert the profile consumed exactly what the planner predicted."""
    scheduler = campaign.cluster.scheduler
    runtime = campaign.cluster.runtime
    filesystem = campaign.cluster.filesystem
    clock = filesystem.clock
    expected_job = scheduler.first_job_id + plan.job_offset + plan.jobs
    expected_pid = _PID_BASE + ((plan.pid_offset + plan.pids) % _PID_PERIOD)
    expected_clock = base_clock + plan.clock_offset + plan.clock
    expected_inode = base_inode + plan.inode_offset + plan.inodes
    if (jobs_run != plan.jobs or scheduler._next_job_id != expected_job
            or runtime._next_pid != expected_pid or clock != expected_clock
            or filesystem._next_inode != expected_inode):
        raise CollectionError(
            f"campaign worker planning drift after profile {plan.username}: "
            f"jobs {jobs_run}/{plan.jobs}, "
            f"next job id {scheduler._next_job_id}/{expected_job}, "
            f"next pid {runtime._next_pid}/{expected_pid}, "
            f"clock {clock}/{expected_clock}, "
            f"next inode {filesystem._next_inode}/{expected_inode}")


def _worker_summary(campaign: "DeploymentCampaign", jobs_run: int) -> dict:
    """Everything the parent folds back after a worker finishes."""
    collector = campaign.collector
    hasher = collector.hasher
    sender = collector.sender
    channel = campaign.channel
    return {
        "jobs_run": jobs_run,
        "processes_run": campaign.cluster.processes_run,
        "hook_failures": campaign.cluster.runtime.hook_failures,
        "slurm_jobs": list(campaign.cluster.scheduler.jobs),
        "collector": {
            "processes_collected": collector.processes_collected,
            "processes_skipped": collector.processes_skipped,
            "section_errors": collector.section_errors,
        },
        "hasher": {
            "hashes_computed": hasher.hashes_computed,
            "cache_hits": hasher.cache_hits,
            "content_cache_hits": hasher.content_cache_hits,
        },
        "sender": {
            "messages_sent": sender.messages_sent,
            "datagrams_sent": sender.datagrams_sent,
            "send_errors": sender.send_errors,
        },
        "channel": {
            "datagrams_sent": channel.datagrams_sent,
            "bytes_sent": channel.bytes_sent,
            "datagrams_dropped": getattr(channel, "datagrams_dropped", 0),
        },
        "stage_timings": campaign.timer.as_dict(),
    }


def _campaign_worker_main(worker_id: int, config: "CampaignConfig",
                          profiles: tuple[UserProfile, ...],
                          assignment: list[int], plans: list[ProfilePlan],
                          base_clock: int, base_inode: int, out_queue) -> None:
    """One driver worker: rebuild the cluster, run assigned profiles, ship."""
    from repro.workload.campaign import DeploymentCampaign

    try:
        buffer: list[bytes] = []

        def ship(final: bool = False) -> None:
            if buffer and (final or len(buffer) >= BATCH_DATAGRAMS):
                out_queue.put(("data", worker_id, buffer[:]))
                buffer.clear()

        campaign = DeploymentCampaign(config=config, profiles=profiles,
                                      datagram_sink=buffer.append)
        campaign.on_job = lambda _jobs: (
            ship(), out_queue.put(("job", worker_id, 1)))
        campaign.prepare()
        clock = campaign.cluster.filesystem.clock
        inode = campaign.cluster.filesystem._next_inode
        if clock != base_clock or inode != base_inode:
            raise CollectionError(
                f"campaign worker {worker_id}: post-prepare clock/inode "
                f"{clock}/{inode} differ from the parent's "
                f"{base_clock}/{base_inode}; prepare() is no longer "
                "deterministic")
        jobs_total = 0
        try:
            for index in assignment:
                plan = plans[index]
                _seek_cluster(campaign, plan, base_clock, base_inode)
                jobs = campaign._run_profile(profiles[index])
                _check_profile_exit(campaign, plan, base_clock, base_inode, jobs)
                jobs_total += jobs
        finally:
            campaign.collector.close()
        ship(final=True)
        out_queue.put(("done", worker_id, _worker_summary(campaign, jobs_total)))
    except BaseException:  # noqa: BLE001 - ship the traceback, then die
        out_queue.put(("error", worker_id, traceback.format_exc()))


# ---------------------------------------------------------------------- #
# parent side
# ---------------------------------------------------------------------- #
def _context():
    """Fork-preferring multiprocessing context (pattern of the ingest pool)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _fold_summaries(campaign: "DeploymentCampaign",
                    summaries: dict[int, dict]) -> None:
    """Fold worker counters into the parent's objects so CampaignResult
    fields mean the same thing in serial and parallel runs."""
    cluster = campaign.cluster
    collector = campaign.collector
    hasher = collector.hasher
    sender = collector.sender
    channel = campaign.channel
    all_jobs = []
    for summary in summaries.values():
        cluster.processes_run += summary["processes_run"]
        cluster.runtime.hook_failures += summary["hook_failures"]
        all_jobs.extend(summary["slurm_jobs"])
        for name, value in summary["collector"].items():
            setattr(collector, name, getattr(collector, name) + value)
        for name, value in summary["hasher"].items():
            setattr(hasher, name, getattr(hasher, name) + value)
        for name, value in summary["sender"].items():
            setattr(sender, name, getattr(sender, name) + value)
        for name, value in summary["channel"].items():
            if hasattr(channel, name):
                setattr(channel, name, getattr(channel, name) + value)
        campaign.timer.merge(summary["stage_timings"])
    all_jobs.sort(key=lambda job: job.job_id)
    cluster.scheduler.jobs.extend(all_jobs)
    if all_jobs:
        cluster.scheduler._next_job_id = all_jobs[-1].job_id + 1


def _check_liveness(processes: list, done: set[int]) -> None:
    for worker_id, process in enumerate(processes):
        if worker_id not in done and not process.is_alive():
            raise CollectionError(
                f"campaign worker {worker_id} died (exit code "
                f"{process.exitcode}) without reporting a result")


def run_parallel_jobs(campaign: "DeploymentCampaign") -> int:
    """Drive a prepared campaign's job loop across OS worker processes.

    Called by :meth:`DeploymentCampaign.run` when
    ``config.campaign_workers > 1``; returns the total job count, leaving
    the campaign's store/ingest exactly as a serial job loop would (up to
    the documented arrival-order permutation).
    """
    config = campaign.config
    profiles = campaign.profiles
    timer = campaign.timer
    with timer.section("campaign.jobs"):
        plans = plan_profiles(config, profiles)
        workers = max(1, min(config.campaign_workers, len(profiles)))
        assignments = partition_plans(plans, workers)
        # Workers collect only: memory channel into a sink, no store/ingest,
        # no fault plan (store/worker faults live in the parent).  Socket
        # campaigns ignore loss_rate, so their workers must too.  Workers are
        # daemonic and may not fork again, so the hashing pool knob flattens
        # to in-process hashing (digests are identical either way).
        worker_config = replace(
            config, campaign_workers=1, transport="memory",
            store_path=":memory:", fault_plan=None, hash_concurrency=1,
            loss_rate=0.0 if config.transport == "socket" else config.loss_rate)
        base_clock = campaign.cluster.filesystem.clock
        base_inode = campaign.cluster.filesystem._next_inode
        context = _context()
        queue = context.Queue()
        # Worker datagrams enter the ingest front directly: the loss (and any
        # socket hop) already happened inside the worker's channel, so running
        # the parent channel again would apply it twice.
        handle = campaign.deployment.front.handle_datagram
        processes = []
        for worker_id, assignment in enumerate(assignments):
            process = context.Process(
                target=_campaign_worker_main,
                args=(worker_id, worker_config, profiles, assignment, plans,
                      base_clock, base_inode, queue),
                daemon=True, name=f"campaign-driver-{worker_id}")
            process.start()
            processes.append(process)

        jobs_run = 0
        done: set[int] = set()
        summaries: dict[int, dict] = {}
        feed_stats = {"batches_received": 0, "feed_calls": 0, "datagrams_fed": 0}
        batch: list[bytes] = []

        def flush_feed() -> None:
            # One parent ingest call per coalesced run: `driver.feed` +
            # `store.write` are the driver's remaining serial cost, so the
            # per-call overhead (timer sections, receiver dispatch, write
            # transactions) is paid once per run instead of once per worker
            # batch.
            with timer.section("driver.feed"):
                for datagram in batch:
                    handle(datagram)
            feed_stats["feed_calls"] += 1
            feed_stats["datagrams_fed"] += len(batch)
            batch.clear()

        try:
            while len(done) < len(processes):
                try:
                    item = queue.get(timeout=_POLL_INTERVAL)
                except Empty:
                    _check_liveness(processes, done)
                    continue
                # Coalesce: drain whatever else has already queued, so
                # contiguous worker datagram batches merge before the single
                # parent ingest path.  The cap bounds how long a queued
                # "job" progress callback can be deferred.
                items = [item]
                while len(items) < _DRAIN_LIMIT:
                    try:
                        items.append(queue.get_nowait())
                    except Empty:
                        break
                for kind, worker_id, payload in items:
                    if kind == "data":
                        feed_stats["batches_received"] += 1
                        batch.extend(payload)
                        continue
                    if batch:
                        # Control message: feed what queued before it so the
                        # serial path's feed/on_job relative order survives.
                        flush_feed()
                    if kind == "job":
                        jobs_run += payload
                        if campaign.on_job is not None:
                            campaign.on_job(jobs_run)
                    elif kind == "done":
                        done.add(worker_id)
                        summaries[worker_id] = payload
                    else:  # "error"
                        raise CollectionError(
                            f"campaign worker {worker_id} failed:\n{payload}")
                if batch:
                    flush_feed()
            for process in processes:
                process.join(timeout=10.0)
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=5.0)
            queue.close()

        campaign.feed_stats = feed_stats
        _fold_summaries(campaign, summaries)
        total_jobs = sum(summary["jobs_run"] for summary in summaries.values())
        if total_jobs != sum(plan.jobs for plan in plans):
            raise CollectionError(
                f"parallel driver ran {total_jobs} jobs but the plan called "
                f"for {sum(plan.jobs for plan in plans)}")
        # The parent's clock never advanced; land it where the serial driver
        # would so post-run timestamps (store epochs, analyses) line up.
        end_clock = base_clock + sum(plan.clock for plan in plans)
        filesystem = campaign.cluster.filesystem
        if filesystem.clock < end_clock:
            filesystem.advance_clock(end_clock - filesystem.clock)
    return total_jobs


__all__ = [
    "BATCH_DATAGRAMS",
    "ProfilePlan",
    "plan_profiles",
    "partition_plans",
    "run_parallel_jobs",
]
