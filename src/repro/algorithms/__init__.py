"""All dissemination protocols: baselines, network-coded algorithms, reductions."""

from .base import ProtocolConfig, ProtocolFactory, ProtocolNode, log2_ceil
from .blocks import (
    BlockBroadcast,
    block_bits,
    decode_block,
    encode_block,
    max_tokens_per_block,
    token_slot_bits,
)
from .centralized import CentralizedCodedNode, FreeHeaderCodedMessage
from .counting import CountingOutcome, count_nodes_via_doubling
from .deterministic import (
    DeterministicIndexedBroadcastNode,
    deterministic_broadcast_config,
)
from .greedy_forward import GreedyForwardNode
from .indexed_broadcast import IndexedBroadcastNode
from .naive_coded import NaiveCodedNode
from .priority_forward import BlockDescriptor, PriorityForwardNode
from .random_forward import GatherState, LeaderInfo, RandomForwardNode
from .token_forwarding import (
    PipelinedTokenForwardingNode,
    TokenForwardingNode,
    tokens_per_message,
)
from .tstable import (
    PatchShareCoordinator,
    TStablePatchFactory,
    TStablePatchNode,
    make_tstable_factory,
)

__all__ = [
    "BlockBroadcast",
    "BlockDescriptor",
    "CentralizedCodedNode",
    "CountingOutcome",
    "DeterministicIndexedBroadcastNode",
    "FreeHeaderCodedMessage",
    "GatherState",
    "GreedyForwardNode",
    "IndexedBroadcastNode",
    "LeaderInfo",
    "NaiveCodedNode",
    "PatchShareCoordinator",
    "PipelinedTokenForwardingNode",
    "PriorityForwardNode",
    "ProtocolConfig",
    "ProtocolFactory",
    "ProtocolNode",
    "RandomForwardNode",
    "TStablePatchFactory",
    "TStablePatchNode",
    "TokenForwardingNode",
    "block_bits",
    "count_nodes_via_doubling",
    "decode_block",
    "deterministic_broadcast_config",
    "encode_block",
    "log2_ceil",
    "make_tstable_factory",
    "max_tokens_per_block",
    "token_slot_bits",
    "tokens_per_message",
]
