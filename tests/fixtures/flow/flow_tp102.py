"""TP102 fixture: the PR-2 hybrid ``_invalidate_remaining`` bypass.

The merge path never touches a flash page directly — it calls a
helper, and the helper invalidates pages on the raw block, bypassing
``FlashMemory`` (and therefore the ``FaultInjector``).  TP102 must
flag both ends of the chain: the helper's direct call (the chain of
length zero) and the *merge path's call into the helper*, one level of
indirection away from the mutation.
"""


class LeakyHybridFTL:
    """A hybrid FTL whose switch-merge hides flash ops in a helper."""

    def _switch_merge(self, lbn, old_data):
        self.block_map[lbn] = self.log_block
        self._invalidate_remaining(old_data)

    def _invalidate_remaining(self, block):
        for offset in block.valid_offsets():
            block.invalidate(offset)
