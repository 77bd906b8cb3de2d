"""A state machine over ``ArtifactHasher``'s two cache tiers.

The path tier remembers each path's last hashed write; the content tier
remembers every payload by its BLAKE2b key.  The rules are the filesystem
events that can make either tier lie: a write after the clock moved, a
rewrite within the same clock tick (``mtime``, inode and size can all stay
put), removing a path and adding it back, and starting over with a fresh
hasher.  Paths share a small content pool, so byte-identical files under
several paths, and a script byte-identical to an executable, are the common
case.

After every step each path's executable hashes and script digest equal those
a fresh hasher computes from the same filesystem (cold caches, so computed
from the bytes), and the path tier holds at most one entry per path: a
rewrite replaces the entry, it does not strand the old one.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.collector.fuzzy import ArtifactHasher
from repro.hpcsim.filesystem import VirtualFilesystem
from repro.util.rng import SeededRNG

_PATHS = ("/scratch/a.out", "/scratch/run.py", "/users/alice/bin/tool")
#: equal sizes, so a same-tick rewrite leaves the whole stat unchanged
_CONTENTS = tuple(SeededRNG(seed).bytes(3000) for seed in range(4))

_paths = st.sampled_from(_PATHS)
_contents = st.sampled_from(range(len(_CONTENTS)))


class HasherMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.filesystem = VirtualFilesystem()
        self.hasher = ArtifactHasher(self.filesystem)

    def _exists(self, path: str) -> bool:
        return self.filesystem.exists(path)

    @rule(path=_paths, content=_contents)
    def write(self, path, content):
        self.filesystem.advance_clock(1)
        self.filesystem.add_file(path, _CONTENTS[content], executable=True)

    @rule(path=_paths, content=_contents)
    def rewrite_within_the_tick(self, path, content):
        if self._exists(path):
            self.filesystem.add_file(path, _CONTENTS[content], executable=True)

    @rule(path=_paths, content=_contents)
    def remove_and_add_back(self, path, content):
        if self._exists(path):
            self.filesystem.remove(path)
            self.filesystem.add_file(path, _CONTENTS[content], executable=True)

    @rule()
    def fresh_hasher(self):
        self.hasher = ArtifactHasher(self.filesystem)

    @rule(path=_paths, script_first=st.booleans())
    def hash_path(self, path, script_first):
        if not self._exists(path):
            return
        if script_first:
            self.hasher.script_hash(path)
        self.hasher.executable_hashes(path)

    @invariant()
    def digests_equal_a_cold_hasher(self):
        for path in filter(self._exists, _PATHS):
            assert self.hasher.executable_hashes(path) == \
                ArtifactHasher(self.filesystem).executable_hashes(path), path
            assert self.hasher.script_hash(path) == \
                ArtifactHasher(self.filesystem).script_hash(path), path

    @invariant()
    def the_path_tier_holds_one_entry_per_path(self):
        assert len(self.hasher._exe_cache) <= len(_PATHS)
        assert len(self.hasher._script_cache) <= len(_PATHS)


HasherMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=15,
                                           deadline=None)
TestHasherMachine = HasherMachine.TestCase
