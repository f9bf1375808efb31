"""Gather the chunks of an exact-law sampler into one eager FieldEnsemble.

The samplers never keep a whole ensemble: they hand each chunk of
realizations to their collectors.  Tests that read field values directly
collect every chunk here and join them in realization order.
"""

from dataclasses import replace

import numpy as np


class _ChunkList(list):
    def observe_chunk(self, chunk):
        self.append(replace(chunk, values=chunk.values.copy()))


def gather(sampler, *args, **kwargs):
    """Run sampler(*args, **kwargs) and return all its realizations as one
    FieldEnsemble of shape (realizations, times, x)."""
    chunks = _ChunkList()
    sampler(*args, collectors=(chunks,), **kwargs)
    return replace(chunks[0], values=np.concatenate([c.values for c in chunks]))
