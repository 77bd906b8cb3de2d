"""Turn profile templates into concrete job scripts.

The :class:`ScenarioBuilder` knows how to translate a
:class:`~repro.workload.profiles.JobTemplate` into a
:class:`~repro.hpcsim.slurm.JobScript`: it resolves system tools and installed
package variants through the corpus manifest, assembles the module list
(the opt-in ``siren`` module, the stacks required by the executables, any
user-environment quirk), creates per-user Python scripts on the filesystem and
wires up the interpreter's imported packages and mapped extension files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.builder import CorpusManifest
from repro.corpus.python_env import extension_paths
from repro.hpcsim.cluster import Cluster
from repro.hpcsim.slurm import JobScript, ProcessSpec, StepSpec
from repro.hpcsim.users import User
from repro.util.rng import SeededRNG
from repro.workload.profiles import JobTemplate, PythonRun, UserProfile

#: How often a user's Python scripts change content: 1 = a new script every
#: job, N = a new revision every N jobs, 0 = the script never changes.
SCRIPT_VARIATION_PERIOD: dict[str, int] = {
    "user_5": 1,
    "user_12": 1,
    "user_4": 12,
}


@dataclass
class ScenarioBuilder:
    """Build job scripts against an installed corpus."""

    cluster: Cluster
    manifest: CorpusManifest
    rng: SeededRNG = field(default_factory=lambda: SeededRNG(99))
    _script_cache: dict[tuple[str, str, int], str] = field(init=False, default_factory=dict)

    # ------------------------------------------------------------------ #
    # job scripts
    # ------------------------------------------------------------------ #
    def build_job_script(
        self,
        profile: UserProfile,
        template: JobTemplate,
        user: User,
        *,
        job_index: int = 0,
        quirk_module: str | None = None,
    ) -> JobScript:
        """Materialise one job of ``profile`` following ``template``."""
        processes: list[ProcessSpec] = []
        modules: list[str] = []
        if profile.opt_in:
            modules.append(self.manifest.siren_module.split("/")[0])
        modules.extend(template.extra_modules)
        if quirk_module:
            modules.append(quirk_module)

        for tool_name, count in template.system_calls:
            processes.append(ProcessSpec(executable=self.manifest.tool(tool_name), count=count))

        for run in template.app_runs:
            executable = self.manifest.find_executable(run.package, run.variant_id,
                                                       user.username)
            modules.extend(module for module in executable.required_modules
                           if module not in modules)
            processes.append(ProcessSpec(executable=executable.path,
                                         argv=(executable.path, "-input", "run.in"),
                                         ranks=run.ranks, count=run.count))

        for run in template.python_runs:
            processes.append(self._python_process(profile, run, user, job_index))

        return JobScript(
            name=f"{profile.username}-{template.name}",
            modules=tuple(modules),
            steps=(StepSpec(processes=tuple(processes), uses_srun=template.uses_srun),),
        )

    # ------------------------------------------------------------------ #
    # python runs
    # ------------------------------------------------------------------ #
    def _python_process(self, profile: UserProfile, run: PythonRun, user: User,
                        job_index: int) -> ProcessSpec:
        interpreter_path = self.manifest.interpreter(run.interpreter)
        script_path = self.ensure_script(user, run, job_index)
        return ProcessSpec(
            executable=interpreter_path,
            argv=(interpreter_path, script_path),
            count=run.count,
            python_script=script_path,
            imported_packages=run.packages,
            mapped_files=tuple(extension_paths(run.interpreter, list(run.packages))),
        )

    def ensure_script(self, user: User, run: PythonRun, job_index: int) -> str:
        """Create (or reuse) the Python script a run executes and return its path.

        Users in :data:`SCRIPT_VARIATION_PERIOD` produce a new script revision
        every ``period`` jobs, which drives the "unique SCRIPT_H" counts of
        Table 8; other users keep reusing the same script file.
        """
        period = SCRIPT_VARIATION_PERIOD.get(user.username, 0)
        revision = (job_index // period) if period else 0
        key = (user.username, run.script_tag, revision)
        cached = self._script_cache.get(key)
        if cached is not None:
            return cached

        path = f"{user.home}/scripts/{run.script_tag}-r{revision}.py"
        imports = "\n".join(f"import {package}" for package in run.packages)
        body_lines = [
            f"# {run.script_tag} revision {revision} for {user.username}",
            imports,
            "",
            "def main():",
            f"    workload = [{revision} * step for step in range({8 + revision % 5})]",
            "    total = sum(workload)",
            f"    print('{run.script_tag}', total)",
            "",
            "if __name__ == '__main__':",
            "    main()",
            "",
        ]
        self.cluster.filesystem.add_file(path, "\n".join(body_lines).encode("utf-8"),
                                         uid=user.uid, gid=user.gid)
        self._script_cache[key] = path
        return path
