"""Fixture: a coded window of its own outside algorithms/blocks.py (REP304).

Lives under an ``algorithms/`` directory on purpose.
"""

from repro.coding.rlnc import Generation


class Node:
    def join(self, message):
        return Generation.for_message(message).new_state()

    def open(self, k):
        return Generation(k=k, payload_bits=8)

    def finish(self, state, config):
        return [decode_block(config, p, 1) for p in state.decode_payloads()]

    def pick(self, items):
        return self.rng.choice(len(items), size=2, replace=False)

    def pick_allowed(self, items):
        return self.rng.choice(len(items), size=2, replace=False)  # repro: allow[REP304] fixture proves suppression works
