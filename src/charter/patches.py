"""Interval patches against one contract snapshot, and union-first merging.

A contract value is immutable, so the snapshot a layer's dispatches read is
also the coordinate system of all of that layer's edits: each edit is a
line-interval replacement into that snapshot's section bodies, never into any
intermediate state. One coordinate system is what makes concurrent edits
mergeable without index-shift corruption. Overlapping edits are resolved by
union: every author's proposed lines survive (exact duplicates collapse),
nothing is silently dropped. The merged value must still pass the kernel
guard; ``commit_merge`` raises ``KernelViolation`` otherwise.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass

from .contract import ActionOp, ContractAction, LanguageContract, SectionKey, body_from_text
from .kernel import Violation, guard_violations


class MergeError(Exception):
    pass


class StalePatch(MergeError):
    """Patch coordinates do not fit the snapshot (author saw another contract)."""


class KernelViolation(MergeError):
    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class AtomicPatch:
    section: SectionKey
    start: int  # half-open interval [start, end) into the snapshot's section body
    end: int
    replacement: tuple[str, ...]
    author: str

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise ValueError(f"bad interval [{self.start}, {self.end})")


@dataclass(frozen=True)
class Conflict:
    section: SectionKey
    start: int
    end: int
    authors: tuple[str, ...]


@dataclass(frozen=True)
class MergeResult:
    sections: dict[SectionKey, tuple[str, ...]]
    conflicts: tuple[Conflict, ...] = ()
    patch_count: int = 0


def diff_against_base(base: list[str] | tuple[str, ...], proposed: list[str] | tuple[str, ...]) -> list[tuple[int, int, tuple[str, ...]]]:
    """Line diff as interval replacements; applying them rebuilds ``proposed``.

    difflib's default popular-line heuristic is used: an API section repeats
    lines such as ``Version: 1`` and ``Methods:`` once per entry, and with the
    heuristic off the diff of a long section is quadratic."""
    matcher = difflib.SequenceMatcher(a=list(base), b=list(proposed))
    out: list[tuple[int, int, tuple[str, ...]]] = []
    for tag, a0, a1, b0, b1 in matcher.get_opcodes():
        if tag == "equal":
            continue
        out.append((a0, a1, tuple(proposed[b0:b1])))
    return out


def apply_patches(base: list[str] | tuple[str, ...], patches: list[tuple[int, int, tuple[str, ...]]]) -> list[str]:
    """Apply non-overlapping interval replacements expressed in base coordinates."""
    ordered = sorted(patches, key=lambda p: (p[0], p[1]))
    for (s1, e1, _), (s2, _e2, _r) in zip(ordered, ordered[1:]):
        if s2 < e1:
            raise MergeError(f"overlapping patches at [{s1},{e1}) and [{s2},...)")
    out: list[str] = []
    cursor = 0
    for start, end, replacement in ordered:
        if end > len(base):
            raise StalePatch(f"interval [{start},{end}) exceeds base length {len(base)}")
        out.extend(base[cursor:start])
        out.extend(replacement)
        cursor = end
    out.extend(base[cursor:])
    return out


def patches_for_action(contract: LanguageContract, action: ContractAction, author: str) -> list[AtomicPatch]:
    """Express one section action as atomic patches against ``contract``."""
    base = contract.body(action.section)
    new_lines = body_from_text(action.content)
    proposed = tuple(base) + new_lines if action.op is ActionOp.ADD else new_lines
    return [
        AtomicPatch(
            section=action.section,
            start=start,
            end=end,
            replacement=replacement,
            author=author,
        )
        for start, end, replacement in diff_against_base(list(base), list(proposed))
    ]


def _dedup_key(line: str) -> str:
    return line.rstrip()


def _union_replacement(cluster: list[AtomicPatch]) -> tuple[str, ...]:
    ordered = sorted(cluster, key=lambda p: (p.author, p.start, p.end))
    seen: set[str] = set()
    merged: list[str] = []
    for patch in ordered:
        for line in patch.replacement:
            key = _dedup_key(line)
            if key in seen:
                continue
            seen.add(key)
            merged.append(line)
    return tuple(merged)


def merge_layer(contract: LanguageContract, patches: list[AtomicPatch]) -> MergeResult:
    """Merge one layer's patches against ``contract``, the snapshot they address.

    Non-overlapping patches apply positionally; patches whose half-open
    intervals intersect form a cluster resolved by union (adjacent intervals
    do not conflict). The merge is independent of the input order.
    """
    by_section: dict[SectionKey, list[AtomicPatch]] = {}
    for patch in patches:
        base_len = len(contract.body(patch.section))
        if patch.end > base_len:
            raise StalePatch(
                f"{patch.section.value}: interval [{patch.start},{patch.end}) "
                f"exceeds base length {base_len}"
            )
        by_section.setdefault(patch.section, []).append(patch)

    sections: dict[SectionKey, tuple[str, ...]] = dict(contract.sections)
    conflicts: list[Conflict] = []

    for section in sorted(by_section, key=lambda s: s.value):
        section_patches = sorted(
            by_section[section], key=lambda p: (p.start, p.end, p.author, p.replacement)
        )
        # Group intersecting intervals into clusters; empty intervals at the
        # same point stay separate (they are adjacent, not overlapping).
        clusters: list[list[AtomicPatch]] = []
        for patch in section_patches:
            if clusters:
                last = clusters[-1]
                span_end = max(p.end for p in last)
                if patch.start < span_end:
                    last.append(patch)
                    continue
            clusters.append([patch])

        flat: list[tuple[int, int, tuple[str, ...]]] = []
        for cluster in clusters:
            if len(cluster) == 1:
                patch = cluster[0]
                flat.append((patch.start, patch.end, patch.replacement))
            else:
                start = min(p.start for p in cluster)
                end = max(p.end for p in cluster)
                flat.append((start, end, _union_replacement(cluster)))
                conflicts.append(
                    Conflict(
                        section=section,
                        start=start,
                        end=end,
                        authors=tuple(sorted({p.author for p in cluster})),
                    )
                )
        merged = apply_patches(list(contract.body(section)), flat)
        sections[section] = tuple(merged)

    return MergeResult(sections=sections, conflicts=tuple(conflicts), patch_count=len(patches))


def commit_merge(contract: LanguageContract, result: MergeResult) -> LanguageContract:
    """Commit a merge at the layer barrier: new sections, revision +1.

    The committed contract must re-project to a valid kernel; otherwise the
    whole merge is rejected and the caller's contract is unchanged.
    """
    if result.patch_count == 0:
        return contract
    candidate = LanguageContract(sections=dict(result.sections), revision=contract.revision + 1)
    violations = guard_violations(candidate)
    if violations:
        raise KernelViolation(violations)
    return candidate
