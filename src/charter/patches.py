"""Interval patches against one contract snapshot, and union-first merging.

A contract value is immutable, so the snapshot a batch of document actions
was written against is also the coordinate system of all of its edits: each
edit is a line-interval replacement into that snapshot's section bodies,
never into any intermediate state. One coordinate system is what makes
concurrent edits mergeable without index-shift corruption. Overlapping edits
are resolved by union: every author's proposed lines survive (exact
duplicates collapse), nothing is silently dropped. The merged value must
still pass the kernel guard; ``commit_merge`` raises ``KernelViolation``
otherwise. ``commit_actions`` is the one commit path of every document
action: a layer's at its barrier, and a synthesis stage's, each batch placed,
merged and committed once. An agent's action is placed here, through the
view its author was shown; the auditor places its write-back itself, as
``AtomicPatch``es: one per Status line it moves, and a diff of each entry it
amends against that entry's own lines. A batch the guard refuses is handled
there too: its agents' actions are journaled as refused and the placed
patches commit alone.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .contract import (
    ActionOp,
    ContractAction,
    LanguageContract,
    SectionKey,
    body_from_text,
    journal_record,
    normalize_body,
    rejection_record,
)
from .kernel import ContractView, Violation, guard_violations


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
    One ``SequenceMatcher`` over both: its opcodes that are not equal."""
    return [
        (i0, i1, tuple(proposed[j0:j1]))
        for tag, i0, i1, j0, j1 in difflib.SequenceMatcher(a=base, b=proposed).get_opcodes()
        if tag != "equal"
    ]


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


def patches_for_action(
    contract: LanguageContract, action: ContractAction, author: str, view: ContractView
) -> list[AtomicPatch]:
    """Express one section action as atomic patches against ``contract``.

    ``view`` holds the lines the author was shown: the view its prompt bundle
    recorded (``kernel.task_view`` for a worker, critic or the plan reviewer,
    ``{}`` for the planner, ``kernel.NO_LINES`` for the contract-less
    ablation). An UPDATE replaces what the author saw. A section the view does
    not name was shown whole, so its hunks are the plain diff against the
    snapshot. Otherwise the UPDATE is diffed against the view and each hunk is
    re-anchored in the snapshot: a pure insertion lands right after the
    preceding shown line; a replaced or deleted range of the view is split
    into runs contiguous in the snapshot, the first run taking the
    replacement and the later ones deleted. A line the author was not shown
    is therefore never touched. An ADD is one insertion at the end of the
    section (none when it adds no line).
    """
    base = contract.body(action.section)
    new_lines = body_from_text(action.content)
    if action.op is ActionOp.ADD:
        hunks = [(len(base), len(base), new_lines)] if new_lines else []
    elif action.section not in view:
        hunks = diff_against_base(base, new_lines)
    else:
        shown = view[action.section]
        seen = [base[i] for i in shown]
        hunks = [
            hunk
            for start, end, replacement in diff_against_base(seen, list(new_lines))
            for hunk in _reanchored(shown, start, end, replacement)
        ]
    return [
        AtomicPatch(section=action.section, start=start, end=end, replacement=replacement, author=author)
        for start, end, replacement in hunks
    ]


def _reanchored(
    shown: tuple[int, ...], start: int, end: int, replacement: tuple[str, ...]
) -> list[tuple[int, int, tuple[str, ...]]]:
    """One hunk in view coordinates as hunks in snapshot coordinates."""
    if start == end:
        at = shown[start - 1] + 1 if start else 0
        return [(at, at, replacement)]
    runs: list[list[int]] = []
    for index in shown[start:end]:
        if runs and runs[-1][1] == index:
            runs[-1][1] = index + 1
        else:
            runs.append([index, index + 1])
    return [(s, e, replacement if k == 0 else ()) for k, (s, e) in enumerate(runs)]


def _union_replacement(cluster: list[AtomicPatch]) -> tuple[str, ...]:
    ordered = sorted(cluster, key=lambda p: (p.author, p.start, p.end))
    seen: set[str] = set()
    merged: list[str] = []
    for patch in ordered:
        for line in patch.replacement:
            key = line.rstrip()
            if key in seen:
                continue
            seen.add(key)
            merged.append(line)
    return tuple(merged)


def merge_layer(contract: LanguageContract, patches: Sequence[AtomicPatch]) -> MergeResult:
    """Merge one batch's patches against ``contract``, the snapshot they address.

    Non-overlapping patches apply positionally; patches whose half-open
    intervals intersect form a cluster resolved by union (adjacent intervals
    do not conflict). The merge is independent of the input order. Each
    rebuilt section is trimmed of blank lines at both ends, as
    ``LanguageContract.with_section`` trims a section it is given. A patch
    past its section's end raises ``StalePatch`` (``apply_patches``).
    """
    by_section: dict[SectionKey, list[AtomicPatch]] = {}
    for patch in patches:
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
        sections[section] = normalize_body(apply_patches(list(contract.body(section)), flat))

    return MergeResult(sections=sections, conflicts=tuple(conflicts), patch_count=len(patches))


def commit_merge(contract: LanguageContract, result: MergeResult) -> LanguageContract:
    """Commit a merge: new sections, revision +1.

    The committed contract must re-project to a valid kernel; otherwise the
    whole merge is rejected and the caller's contract is unchanged. It is
    projected through ``contract``, the snapshot it was merged against, so
    its projection re-reads only the API entries the merge changed.
    """
    if result.patch_count == 0:
        return contract
    candidate = LanguageContract(sections=result.sections, revision=contract.revision + 1)
    violations = guard_violations(candidate, contract)
    if violations:
        raise KernelViolation(violations)
    return candidate


def commit_actions(
    contract: LanguageContract,
    actions: Sequence[tuple[str, ContractAction, ContractView]],
    journal: Callable[[dict], None],
    placed: Sequence[AtomicPatch],
    stage: str,
) -> tuple[LanguageContract, int, KernelViolation | None]:
    """Place ``(author, action, view)`` triples against ``contract``, merge
    them with the ``placed`` patches and commit the result once; return it,
    the merge's conflict count and the guard's refusal, if any.

    Each action is re-anchored through the view its author was shown
    (``patches_for_action``). One author's actions on one section are first
    folded in order into one: a later UPDATE replaces what that author's
    earlier actions wrote there, and an ADD extends it. So a batch is placed
    against its snapshot whatever the order of its actions. The ``placed``
    patches, the auditor's write-back, were placed in the snapshot's API
    section by their author and merge as they are; they are journaled as the
    UPDATE they make, that section with them applied. Every action is
    journaled at the revision it lands in, the placed UPDATE first, also when
    the batch changes no line; a ``commit`` record follows when a revision is
    made.
    When the guard refuses the merge, each agent action is journaled as
    refused at ``stage`` (``"layer N"`` or a synthesis stage), the placed
    patches are committed alone and the ``KernelViolation`` is returned.
    """
    folded: dict[tuple[str, SectionKey], tuple[ContractAction, ContractView]] = {}
    for author, action, view in actions:
        earlier = folded.get((author, action.section))
        if earlier is not None and action.op is ActionOp.ADD:
            lines = (*body_from_text(earlier[0].content), *body_from_text(action.content))
            action = replace(earlier[0], content="\n".join(lines))
        folded[author, action.section] = (action, view)
    patches = [
        patch
        for (author, _), (action, view) in folded.items()
        for patch in patches_for_action(contract, action, author, view)
    ]
    merged = merge_layer(contract, [*placed, *patches])
    try:
        committed, refusal = commit_merge(contract, merged), None
    except KernelViolation as exc:
        refusal = exc
        for _, action, _ in actions:
            journal(rejection_record(action, stage, str(exc)))
        merged = merge_layer(contract, placed)
        committed = commit_merge(contract, merged)
    journaled = [] if refusal else [action for _, action, _ in actions]
    if placed:
        api = SectionKey.API_SPECIFICATIONS
        written = apply_patches(contract.body(api), [(p.start, p.end, p.replacement) for p in placed])
        journaled.insert(0, ContractAction(ActionOp.UPDATE, api, "\n".join(written)))
    for action in journaled:
        journal(journal_record(action, committed.revision))
    if committed is not contract:
        journal({"kind": "commit", "revision": committed.revision, "base_sha256": committed.fingerprint()})
    return committed, len(merged.conflicts), refusal
