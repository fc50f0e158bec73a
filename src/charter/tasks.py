"""Task lifecycle: the four statuses, their legal transitions, and the task record."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class TaskStatus(Enum):
    TODO = "TODO"
    DONE = "DONE"
    ERROR = "ERROR"
    VERIFIED = "VERIFIED"

    __hash__ = object.__hash__  # identity, as ``SectionKey`` hashes


# VERIFIED is absorbing: it never appears as a source state.
LEGAL_TRANSITIONS: frozenset[tuple[TaskStatus, TaskStatus]] = frozenset(
    {
        (TaskStatus.TODO, TaskStatus.DONE),
        (TaskStatus.DONE, TaskStatus.VERIFIED),
        (TaskStatus.DONE, TaskStatus.ERROR),
        (TaskStatus.ERROR, TaskStatus.DONE),
    }
)


def is_legal_transition(old: TaskStatus, new: TaskStatus) -> bool:
    return (old, new) in LEGAL_TRANSITIONS


class IllegalTransition(RuntimeError):
    """Raised when a status update would leave the legal transition relation."""


@dataclass
class Task:
    """One atomic unit of work: implement and verify a single contracted file."""

    id: str  # the contracted file's normalized path
    owner: str
    status: TaskStatus = TaskStatus.TODO
    attempts: int = 0
    feedback: list[str] = field(default_factory=list)

    def transition(self, new: TaskStatus) -> None:
        """Move to ``new``; an illegal move raises ``IllegalTransition``."""
        if not is_legal_transition(self.status, new):
            raise IllegalTransition(f"{self.id}: {self.status.value} -> {new.value}")
        self.status = new
