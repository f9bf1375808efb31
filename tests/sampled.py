"""Gather whole fields that the library hands out piece by piece, and
build faulty copies of its loops.

The exact-law samplers never keep a whole ensemble: they hand each chunk of
realizations to their collectors, and ``gather`` joins every chunk in
realization order.  solve_ensemble hands each row of the Picard iterates
to the collectors that declare it, and ``FinalIterates`` declares every row
to keep each realization's final iterate whole.  ``faulty_copy`` rebuilds a
library function with one piece of its source replaced, for fault tests.
"""

import inspect
import textwrap
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


class FinalIterates:
    """A solve_ensemble collector that keeps the last level of every row:
    ``fields`` lists the final iterates, shape (n_steps + 1, n_fft), in
    realization order."""

    def __init__(self, geom):
        self.t_idx = np.arange(geom.n_steps + 1)
        self._shape = (geom.n_steps + 1, geom.n_fft)
        self._fields = {}

    def observe(self, r, k, levels):
        if r not in self._fields:
            self._fields[r] = np.empty(self._shape)
        self._fields[r][k] = levels[-1]

    @property
    def fields(self):
        return [self._fields[r] for r in sorted(self._fields)]


def faulty_copy(fn, old, new):
    """A copy of the module-level function fn with the one occurrence of the
    source text old replaced by new, run in a copy of fn's module namespace."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(src.replace(old, new), namespace)
    return namespace[fn.__name__]
