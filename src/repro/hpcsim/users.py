"""Users and groups of the simulated cluster.

The deployment campaign in the paper has 12 opt-in users, anonymised as
``user_1`` ... ``user_12``.  The registry assigns stable UIDs/GIDs and home
directories, and supports the same anonymisation step used in the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import SimulationError


@dataclass(frozen=True)
class User:
    """One cluster account."""

    username: str
    uid: int
    gid: int
    project: str = "project_465000000"

    @property
    def home(self) -> str:
        """Home directory path."""
        return f"/users/{self.username}"


@dataclass
class UserRegistry:
    """Registry of cluster users with deterministic UID/GID allocation."""

    first_uid: int = 10_000
    _users: dict[str, User] = field(init=False, default_factory=dict)

    def add(self, username: str, *, project: str | None = None) -> User:
        """Register a new user (idempotent: re-adding returns the same user)."""
        if username in self._users:
            return self._users[username]
        uid = self.first_uid + len(self._users)
        user = User(
            username=username,
            uid=uid,
            gid=uid,
            project=project or "project_465000000",
        )
        self._users[username] = user
        return user

    def get(self, username: str) -> User:
        """Look up a user by name."""
        try:
            return self._users[username]
        except KeyError as exc:
            raise SimulationError(f"unknown user: {username}") from exc

    def all(self) -> list[User]:
        """All users in registration order."""
        return list(self._users.values())

    def anonymize(self) -> dict[int, str]:
        """Map UIDs to anonymised labels ``user_<n>`` in registration order.

        The paper anonymises by "random assignment of user_<int> to UIDs";
        here the assignment is deterministic (registration order) so tests and
        benchmarks are stable, which does not change any of the analyses.
        """
        return {
            user.uid: f"user_{index + 1}"
            for index, user in enumerate(self._users.values())
        }

    def __len__(self) -> int:
        return len(self._users)

    def __contains__(self, username: str) -> bool:
        return username in self._users
