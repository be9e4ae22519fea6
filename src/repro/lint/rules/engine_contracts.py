"""REP3xx: the engine matrix and GF(2) representation contracts.

The two execution engines stay byte-identical only while kernels hold
up their end: a registered kernel declares what it ``supports()`` and can
materialise per-node state back with ``to_nodes()``; kernel modules keep
per-node message/subspace objects *off* the hot path (whole-network state
lives in packed arrays, scalar objects exist only inside ``to_nodes``);
and per-node protocol code in ``algorithms/`` never reaches for the
whole-network :class:`GF2BasisBatch` (ROADMAP "GF(2) representation
rule": int masks per node, stacked batches per network).
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..visitor import ClassRecord, FileIndex
from . import BaseRule, register_rule

#: Methods every registered kernel must provide (directly or via a base
#: class defined in the same module — imported bases are opaque to the
#: static pass, so cross-module kernels must define these themselves).
REQUIRED_KERNEL_METHODS = ("supports", "to_nodes")

#: Scalar per-node classes that must not be instantiated on kernel hot
#: paths (only inside ``to_nodes`` materialisation).
PER_NODE_CLASSES = frozenset(
    {"Subspace", "GF2Basis", "CodedMessage", "Message", "GenerationState"}
)


def _inherited_members(record: ClassRecord, by_name: dict[str, ClassRecord]) -> set[str]:
    """Members reachable through same-module base classes."""
    members: set[str] = set()
    seen: set[str] = set()
    stack = [record.name]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        current = by_name.get(name)
        if current is None:
            continue
        members |= current.members
        stack.extend(base.split(".")[-1] for base in current.base_names)
    return members


@register_rule
class KernelContractRule(BaseRule):
    id = "REP301"
    name = "kernel-contract"
    description = (
        "classes registered with register_kernel must define supports() "
        "and to_nodes()"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        by_name = {record.name: record for record in index.classes}
        for record in index.classes:
            registered = any(
                deco.split(".")[-1] == "register_kernel" for deco in record.decorators
            )
            if not registered:
                continue
            members = _inherited_members(record, by_name)
            for method in REQUIRED_KERNEL_METHODS:
                if method not in members:
                    yield self.finding(
                        index,
                        record.node,
                        f"kernel class {record.name} is registered via "
                        f"register_kernel but defines no {method}() (in its "
                        "body or a same-module base); the engine-selection "
                        "and materialisation contract requires it",
                    )


@register_rule
class PerNodeObjectRule(BaseRule):
    id = "REP302"
    name = "per-node-object"
    description = (
        "kernel modules must not build per-node message/Subspace objects "
        "outside to_nodes materialisation"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        if not index.is_kernel_module:
            return
        for call in index.calls:
            resolved = call.resolved
            if not resolved:
                continue
            touched = PER_NODE_CLASSES & set(resolved.split("."))
            if not touched:
                continue
            if any(name.startswith("to_nodes") for name in call.func_names):
                continue
            cls = sorted(touched)[0]
            yield self.finding(
                index,
                call.node,
                f"per-node `{cls}` built outside to_nodes() in a kernel "
                "module: whole-network rounds must stay on packed arrays "
                "(GF2BasisBatch / uint64 masks); scalar objects are for "
                "final materialisation only",
            )


@register_rule
class BatchLeakRule(BaseRule):
    id = "REP303"
    name = "batch-in-algorithms"
    description = (
        "per-node protocol code in algorithms/ must not import the "
        "whole-network GF2BasisBatch"
    )
    categories = frozenset({"src"})

    def check(self, index: FileIndex) -> Iterator[Finding]:
        if not index.in_algorithms:
            return
        for imp in index.imports:
            module_tail = imp.module.lstrip(".").split(".")
            from_packed = module_tail[-2:] == ["gf", "packed"] or module_tail[-1:] == [
                "packed"
            ]
            if "GF2BasisBatch" in imp.names or (from_packed and "gf" in module_tail):
                yield self.finding(
                    index,
                    imp.node,
                    "algorithms/ is per-node, message-at-a-time code and "
                    "works in int-mask form; GF2BasisBatch is the "
                    "whole-network representation — convert at the kernel "
                    "boundary with masks_to_packed/packed_to_masks instead",
                )
        for call in index.calls:
            resolved = call.resolved
            if resolved and "GF2BasisBatch" in resolved.split("."):
                yield self.finding(
                    index,
                    call.node,
                    "GF2BasisBatch used inside algorithms/: per-node "
                    "protocol logic must stay in int-mask form (the GF(2) "
                    "representation rule)",
                )
