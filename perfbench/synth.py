"""Seeded synthetic inputs for the benchmark: contracts, scripted answers, latencies.

``chain_plan`` and ``heal_plan`` build everything one synthetic run needs from
a seed: the intent, the answers of every agent keyed by (role, task, attempt
index), the simulated latency profile, and an oracle of the final file bodies.
``SyntheticBackend`` serves those answers to ``charter.run``.

Two shapes are generated:

* a chain contract (``chain_plan``): every worker returns a conforming
  artifact on its first attempt and every critic passes, so a run takes two
  layers;
* a self-healing contract (``heal_plan``): the seed decides which workers miss
  a contracted method on their first attempt (CRITICAL, retried with
  feedback), which emit an extra method (PATCHABLE, amendment), which read an
  undeclared attribute off their upstream peer (PATCHABLE, amendment, then a
  repair of the peer), and which propose overlapping edits to Global Shared
  Knowledge (union-merge conflicts).

Names are drawn from a vocabulary of equal-length words, so the seed changes
the content of the inputs but not their size in bytes or prompt tokens.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass

from charter.agents import AgentResponse, format_response
from charter.contract import ActionOp, ContractAction, SectionKey
from charter.kernel import ApiSpecEntry, AttributeSpec, ClassSpec, MethodSig, print_api_section
from charter.tasks import TaskStatus

# Equal length keeps generated sizes independent of the seed.
WORDS = (
    "amber", "birch", "cedar", "delta", "ember", "fable", "gamut", "haven",
    "ivory", "jolly", "karma", "lemon", "maple", "noble", "ocean", "pearl",
    "quill", "raven", "sable", "tango", "umber", "vivid", "wheat", "xenon",
    "yacht", "zesty",
)
PACKAGES = ("core", "flow", "util", "view")

PM, DISCRIMINATOR, WORKER, CRITIC = "project_manager", "discriminator", "worker", "critic"

GSK_LINES = (
    "- Every node exposes an integer value and a textual summary.",
    "- Values flow from upstream to downstream through step calls.",
    "- Collections returned by nodes are plain lists of integers.",
    "- No module performs input or output at import time.",
)


@dataclass(frozen=True)
class Latency:
    """Simulated model latency: a seeded draw per (role, task, attempt) from the
    role's range in seconds, plus ``per_token`` seconds per prompt token."""

    ranges: tuple[tuple[str, float, float], ...] = ()
    per_token: float = 0.0

    def seconds(self, seed: int, role: str, task: str, attempt: int, tokens: int) -> float:
        for name, lo, hi in self.ranges:
            if name == role:
                draw = random.Random(f"{seed}|{role}|{task}|{attempt}").uniform(lo, hi)
                return draw + self.per_token * tokens
        return 0.0


@dataclass(frozen=True)
class Plan:
    """Every input of one synthetic run, plus the oracle of its final files."""

    seed: int
    intent: str
    answers: dict[tuple[str, str], tuple[str, ...]]  # (role, task) -> answer per attempt
    latency: Latency
    oracle: dict[str, str]  # path -> expected final body
    faults: dict[str, tuple[str, ...]]  # fault kind -> task ids

    def to_json(self) -> str:
        """Canonical serialization; equal seeds give byte-identical text."""
        return json.dumps(
            {
                "seed": self.seed,
                "intent": self.intent,
                "answers": [[role, task, list(texts)] for (role, task), texts in sorted(self.answers.items())],
                "latency": {"ranges": [list(r) for r in self.latency.ranges], "per_token": self.latency.per_token},
                "oracle": self.oracle,
                "faults": {k: list(v) for k, v in sorted(self.faults.items())},
            },
            sort_keys=True,
        )


class SyntheticBackend:
    """Answers by (role, task, attempt index), never by layer.

    The attempt index is the number of earlier calls for the same (role, task).
    A layer dispatches each task at most once, so the index, the answer and its
    latency do not depend on thread order. Past the last scripted attempt the
    last answer repeats, so a run that heals in a different number of layers
    still gets answers. ``waits`` holds (layer, seconds slept) per call.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.waits: list[tuple[int, float]] = []
        self._calls: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def complete(self, request) -> str:
        key = (request.role, request.task_id)
        with self._lock:
            attempt = self._calls.get(key, 0)
            self._calls[key] = attempt + 1
        texts = self.plan.answers.get(key)
        if not texts:
            raise KeyError(f"no synthetic answer for role={request.role} task={request.task_id!r}")
        delay = self.plan.latency.seconds(
            self.plan.seed, request.role, request.task_id, attempt, request.bundle.token_count
        )
        if delay > 0:
            with self._lock:
                self.waits.append((request.layer, delay))
            time.sleep(delay)
        return texts[min(attempt, len(texts) - 1)]


# --- contract shape -------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    index: int
    path: str
    cls: str
    words: tuple[str, ...]  # str attr, float attr, list method, extra method, demanded attr
    upstream: "Node | None"

    @property
    def module(self) -> str:
        return self.path[: -len(".py")].replace("/", ".")

    def entry(self) -> ApiSpecEntry:
        w = self.words
        attrs = [
            AttributeSpec("value", "int", "Current integer output of the node."),
            AttributeSpec(w[0], "str", "Short textual label of the node."),
            AttributeSpec(w[1], "float", "Weight applied to incoming values."),
        ]
        if self.upstream is not None:
            attrs.append(AttributeSpec("peer", self.upstream.cls, "Upstream node feeding this one."))
        step_params = (("delta", "int"),)
        if self.upstream is not None:
            step_params = (("upstream", self.upstream.cls),) + step_params
        methods = (
            MethodSig("step", step_params, "int", "Combine the upstream value with delta."),
            MethodSig(w[2], (("limit", "int"),), "list", "Recent values, at most limit of them."),
            MethodSig("describe", (), "str", "Label and value as one line."),
            MethodSig("reset", (), "None", "Return the node to its initial state."),
        )
        return ApiSpecEntry(
            file_path=self.path,
            owner=PACKAGES[self.index % len(PACKAGES)],
            version=1,
            status=TaskStatus.TODO,
            classes=(ClassSpec(self.cls, tuple(attrs), methods),),
        )

    def body(
        self,
        *,
        omit_describe: bool = False,
        extra_method: bool = False,
        demand: str = "",
        extra_attr: str = "",
    ) -> str:
        """Python source for this node; the keyword arguments inject the faults."""
        w = self.words
        up = self.upstream
        lines = [f'"""Node {self.index:03d} of the synthetic pipeline."""', ""]
        if up is not None:
            lines += [f"from {up.module} import {up.cls}", ""]
        lines += ["", f"class {self.cls}:", "    def __init__(self):"]
        lines += [
            "        self.value: int = 0",
            f'        self.{w[0]}: str = "{self.cls.lower()}"',
            f"        self.{w[1]}: float = 1.0",
        ]
        if up is not None:
            lines.append(f"        self.peer: {up.cls} = {up.cls}()")
        if extra_attr:
            lines.append(f"        self.{extra_attr} = 0")
        lines.append("")
        if up is not None:
            lines.append(f"    def step(self, upstream: {up.cls}, delta: int) -> int:")
            source = f"upstream.value + upstream.{demand}" if demand else "upstream.value"
        else:
            lines.append("    def step(self, delta: int) -> int:")
            source = "0"
        lines += [
            '        """Combine the upstream value with delta."""',
            f"        self.value = int(({source} + delta) * self.{w[1]})",
            "        return self.value",
            "",
            f"    def {w[2]}(self, limit: int) -> list:",
            '        """Recent values, at most limit of them."""',
            "        return [self.value] * limit",
            "",
        ]
        if not omit_describe:
            lines += [
                "    def describe(self) -> str:",
                '        """Label and value as one line."""',
                f'        return self.{w[0]} + "=" + str(self.value)',
                "",
            ]
        lines += [
            "    def reset(self) -> None:",
            '        """Return the node to its initial state."""',
            "        self.value = 0",
        ]
        if extra_method:
            lines += [
                "",
                f"    def trace_{w[3]}(self, depth: int) -> list:",
                '        """Values recorded for diagnostics."""',
                "        return [self.value] * depth",
            ]
        return "\n".join(lines) + "\n"


def _nodes(rng: random.Random, n: int) -> list[Node]:
    nodes: list[Node] = []
    for i in range(n):
        path = f"{PACKAGES[i % len(PACKAGES)]}/node_{i:03d}.py"
        words = tuple(rng.sample(WORDS, 5))
        nodes.append(Node(i, path, f"Node{i:03d}", words, nodes[-1] if nodes else None))
    return nodes


def _action(section: SectionKey, content: str, op: ActionOp = ActionOp.UPDATE) -> ContractAction:
    return ContractAction(op=op, section=section, content=content)


def _synthesis_answers(nodes: list[Node], title: str) -> dict[tuple[str, str], tuple[str, ...]]:
    entries = [node.entry() for node in nodes]
    edges = [f"{n.path} --> {n.upstream.path}" for n in nodes if n.upstream is not None]
    proposal = AgentResponse(
        thinking="One file per pipeline node; each node reads only its upstream neighbour.",
        output=f"Drafted the plan for {title}: {len(nodes)} files, typed interfaces, acyclic chain.",
        actions=(
            _action(SectionKey.PROJECT_OVERVIEW, f"{title}: a pipeline of {len(nodes)} chained nodes."),
            _action(
                SectionKey.USER_STORIES,
                "- As a user I feed a value into the first node and read it at the last.\n"
                "- As a user I can reset every node to its initial state.",
            ),
            _action(SectionKey.CONSTRAINTS, "- Standard library only.\n- Deterministic outputs."),
            _action(
                SectionKey.DIRECTORY_STRUCTURE,
                "\n".join(f"{n.path}    pipeline node {n.index:03d}" for n in nodes),
            ),
            _action(SectionKey.GLOBAL_SHARED_KNOWLEDGE, "\n".join(GSK_LINES)),
            _action(SectionKey.API_SPECIFICATIONS, "\n".join(print_api_section(entries))),
            _action(SectionKey.DEPENDENCY_RELATIONSHIPS, "```\n" + "\n".join(edges) + "\n```"),
        ),
    )
    rectification = AgentResponse(
        thinking="The chain is acyclic and every type is declared.",
        output="Draft verified; pinned one constraint.",
        actions=(_action(SectionKey.CONSTRAINTS, "- Nodes never import their downstream.", ActionOp.ADD),),
    )
    return {
        (PM, ""): (format_response(proposal),),
        (DISCRIMINATOR, ""): (format_response(rectification),),
    }


def _worker(node: Node, body: str, actions: tuple[ContractAction, ...] = ()) -> str:
    return format_response(
        AgentResponse(
            thinking=f"Implement {node.path} as contracted.",
            output=f"Implemented {node.path}.",
            actions=actions,
            artifacts=((node.path, body),),
        )
    )


def _critic(node: Node) -> str:
    return format_response(
        AgentResponse(
            thinking="Every contracted class, attribute and signature is present.",
            output=f"{node.path} fulfils its contracted interface.\nVERDICT: PASS",
        )
    )


def chain_plan(seed: int, n: int) -> Plan:
    """A chain of ``n`` nodes; every first answer conforms and every critic passes."""
    rng = random.Random(f"chain|{seed}")
    nodes = _nodes(rng, n)
    answers = _synthesis_answers(nodes, "Synthetic chain")
    oracle: dict[str, str] = {}
    for node in nodes:
        body = node.body()
        oracle[node.path] = body
        answers[(WORKER, node.path)] = (_worker(node, body),)
        answers[(CRITIC, node.path)] = (_critic(node),)
    return Plan(seed, f"Build a synthetic pipeline of {n} chained nodes.\n", answers, Latency(), oracle, {})


HEAL_LATENCY = Latency(
    ranges=((PM, 0.08, 0.10), (DISCRIMINATOR, 0.08, 0.10), (WORKER, 0.06, 0.12), (CRITIC, 0.03, 0.06)),
    per_token=10e-6,
)


def heal_plan(seed: int, n: int, per_fault: int, latency: Latency = HEAL_LATENCY) -> Plan:
    """``n`` nodes with ``per_fault`` tasks of each fault kind, chosen by the seed."""
    rng = random.Random(f"heal|{seed}")
    nodes = _nodes(rng, n)
    # Readers demand from their upstream, so reader/target pairs are drawn first
    # and never share a node with another fault.
    free = set(range(n))
    readers: list[int] = []
    for j in rng.sample(range(1, n), n - 1):
        if len(readers) == per_fault:
            break
        if j in free and j - 1 in free:
            free -= {j, j - 1}
            readers.append(j)
    if len(readers) < per_fault:
        raise ValueError(f"{n} nodes cannot hold {per_fault} reader/target pairs")
    rest = rng.sample(sorted(free), len(free))
    if len(rest) < 3 * per_fault:
        raise ValueError(f"{n} nodes cannot hold {per_fault} tasks of every fault kind")
    missing = rest[:per_fault]
    extra = rest[per_fault : 2 * per_fault]
    gossip = rest[2 * per_fault : 3 * per_fault]

    answers = _synthesis_answers(nodes, "Self-healing pipeline")
    oracle: dict[str, str] = {}
    for node in nodes:
        oracle[node.path] = node.body()
        answers[(WORKER, node.path)] = (_worker(node, oracle[node.path]),)
        answers[(CRITIC, node.path)] = (_critic(node),)
    for i in missing:
        node = nodes[i]
        answers[(WORKER, node.path)] = (_worker(node, node.body(omit_describe=True)), _worker(node, oracle[node.path]))
    for i in extra:
        node = nodes[i]
        oracle[node.path] = node.body(extra_method=True)
        answers[(WORKER, node.path)] = (_worker(node, oracle[node.path]),)
    for j in readers:
        reader, target = nodes[j], nodes[j - 1]
        attr = f"mark_{target.words[4]}"
        oracle[reader.path] = reader.body(demand=attr)
        answers[(WORKER, reader.path)] = (_worker(reader, oracle[reader.path]),)
        oracle[target.path] = target.body(extra_attr=attr)
        answers[(WORKER, target.path)] = (_worker(target, target.body()), _worker(target, oracle[target.path]))
    for i in gossip:
        node = nodes[i]
        lines = list(GSK_LINES)
        lines[rng.randrange(2)] = f"- Convention from {node.path}: {node.words[4]} naming."
        edit = _action(SectionKey.GLOBAL_SHARED_KNOWLEDGE, "\n".join(lines))
        answers[(WORKER, node.path)] = (_worker(node, oracle[node.path], (edit,)),)

    faults = {
        "missing": tuple(nodes[i].path for i in sorted(missing)),
        "extra": tuple(nodes[i].path for i in sorted(extra)),
        "reader": tuple(nodes[j].path for j in sorted(readers)),
        "target": tuple(nodes[j - 1].path for j in sorted(readers)),
        "gossip": tuple(nodes[i].path for i in sorted(gossip)),
    }
    intent = f"Build a self-healing pipeline of {n} chained nodes.\n"
    return Plan(seed, intent, answers, latency, oracle, faults)


def oracle_hashes(plan: Plan) -> dict[str, str]:
    return {path: hashlib.sha256(body.encode("utf-8")).hexdigest() for path, body in plan.oracle.items()}
