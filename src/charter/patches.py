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
merged and committed once.
"""

from __future__ import annotations

import bisect
import difflib
from collections import Counter
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

    The diff is anchored on the lines that occur exactly once in ``base`` and
    exactly once in ``proposed``, keeping the longest run of them that is in
    the same order on both sides (``_anchors``). Anchors are matched lines,
    and difflib runs only on the stretches between consecutive anchors. The
    ``File:`` lines of an API section are such anchors, so a write-back that
    flips N Status lines costs N small diffs, not one diff of the whole
    section, whose repeated lines (``Version: 1``, ``Methods:``) make it
    quadratic. A stretch that differs in one line only, such as an entry
    whose Status flipped, is written as that line's replacement without a
    matcher (``_replaced_line``). Without an anchor this is one
    ``SequenceMatcher`` over both."""
    base, proposed = list(base), list(proposed)
    out: list[tuple[int, int, tuple[str, ...]]] = []
    a0 = b0 = 0
    for a1, b1 in [*_anchors(base, proposed), (len(base), len(proposed))]:
        old, new = base[a0:a1], proposed[b0:b1]
        if old != new:
            at = _replaced_line(old, new)
            if at is not None:
                out.append((a0 + at, a0 + at + 1, (new[at],)))
            else:
                for tag, i0, i1, j0, j1 in difflib.SequenceMatcher(a=old, b=new).get_opcodes():
                    if tag != "equal":
                        out.append((a0 + i0, a0 + i1, tuple(new[j0:j1])))
        a0, b0 = a1 + 1, b1 + 1
    return out


def _replaced_line(old: list[str], new: list[str]) -> int | None:
    """The index of the one line in which two stretches of one length differ,
    when its old text does not occur in ``new`` nor its new text in ``old``
    and the stretch is shorter than difflib's autojunk threshold (200 lines).
    ``SequenceMatcher`` then matches the lines before and after it in place
    and gives this one replacement, so the matcher is not needed. Otherwise
    None."""
    if len(old) != len(new) or len(old) >= 200:
        return None
    differing = [k for k, (line, proposed) in enumerate(zip(old, new)) if line != proposed]
    if len(differing) != 1:
        return None
    at = differing[0]
    return at if old[at] not in new and new[at] not in old else None


def _anchors(base: list[str], proposed: list[str]) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` with ``base[i] == proposed[j]`` a line unique on
    both sides: the longest run of them ascending in ``i`` and in ``j``."""
    once_in_proposed = _unique_lines(proposed)
    pairs = [
        (i, once_in_proposed[line])
        for line, i in _unique_lines(base).items()
        if line in once_in_proposed
    ]
    # Longest increasing subsequence of the j's (pairs ascend in i), by
    # patience sorting: tails[k] is the smallest j ending a run of length
    # k + 1, ends[k] the pair it came from, back[n] the pair before pair n.
    tails: list[int] = []
    ends: list[int] = []
    back: list[int] = []
    for n, (_, j) in enumerate(pairs):
        k = bisect.bisect_left(tails, j)
        back.append(ends[k - 1] if k else -1)
        if k == len(tails):
            tails.append(j)
            ends.append(n)
        else:
            tails[k] = j
            ends[k] = n
    run: list[tuple[int, int]] = []
    n = ends[-1] if ends else -1
    while n >= 0:
        run.append(pairs[n])
        n = back[n]
    return run[::-1]


def _unique_lines(lines: list[str]) -> dict[str, int]:
    """Line -> its index, for the lines that occur exactly once, in order."""
    counts = Counter(lines)
    return {line: i for i, line in enumerate(lines) if counts[line] == 1}


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
    empty for the contract-less ablation), or ``kernel.full_view`` for the
    auditor's write-back. An UPDATE replaces what the author saw, so it is
    diffed against the view and each hunk is re-anchored in the snapshot: a
    pure insertion lands right after the preceding shown line; a replaced or
    deleted range of the view is split into runs contiguous in the snapshot,
    the first run taking the replacement and the later ones deleted. A line
    the author was not shown is therefore never touched. An ADD is one
    insertion at the end of the section (none when it adds no line). Under
    the whole-contract view the hunks are the plain diff against the
    snapshot.
    """
    base = contract.body(action.section)
    new_lines = body_from_text(action.content)
    if action.op is ActionOp.ADD:
        hunks = [(len(base), len(base), new_lines)] if new_lines else []
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
    """Merge one batch's patches against ``contract``, the snapshot they address.

    Non-overlapping patches apply positionally; patches whose half-open
    intervals intersect form a cluster resolved by union (adjacent intervals
    do not conflict). The merge is independent of the input order. Each
    rebuilt section is trimmed of blank lines at both ends, as
    ``LanguageContract.with_section`` trims a section it is given.
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
        sections[section] = normalize_body(apply_patches(list(contract.body(section)), flat))

    return MergeResult(sections=sections, conflicts=tuple(conflicts), patch_count=len(patches))


def commit_merge(contract: LanguageContract, result: MergeResult) -> LanguageContract:
    """Commit a merge: new sections, revision +1.

    The committed contract must re-project to a valid kernel; otherwise the
    whole merge is rejected and the caller's contract is unchanged. It is
    derived from ``contract`` (``LanguageContract.with_sections``), so its
    projection re-reads only the API entries the merge changed.
    """
    if result.patch_count == 0:
        return contract
    candidate = contract.with_sections(result.sections)
    violations = guard_violations(candidate)
    if violations:
        raise KernelViolation(violations)
    return candidate


def commit_actions(
    contract: LanguageContract,
    actions: Sequence[tuple[str, ContractAction, ContractView]],
    journal: Callable[[dict], None],
) -> tuple[LanguageContract, int]:
    """Place ``(author, action, view)`` triples against ``contract``, merge
    them and commit the result once; return it and the merge's conflict count.

    Each action is re-anchored through the view its author was shown
    (``patches_for_action``). One author's actions on one section are first
    folded in order into one: a later UPDATE replaces what that author's
    earlier actions wrote there, and an ADD extends it. So a batch is placed
    against its snapshot whatever the order of its actions. Every action is
    journaled at the revision it lands in, also when the batch changes no
    line; a ``commit`` record follows when a revision is made. When the guard
    refuses the merge, ``KernelViolation`` propagates and nothing is journaled.
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
    merged = merge_layer(contract, patches)
    committed = commit_merge(contract, merged)
    for _, action, _ in actions:
        journal(journal_record(action, committed.revision))
    if committed is not contract:
        journal({"kind": "commit", "revision": committed.revision, "base_sha256": committed.fingerprint()})
    return committed, len(merged.conflicts)
