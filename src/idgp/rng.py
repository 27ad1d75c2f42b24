"""Named random substreams derived from one run seed.

Every source of randomness in the package draws from
``default_rng([seed, stream_id, *extra])`` so that components are
individually reproducible: reseeding the shuffle stream, say, cannot
perturb weight initialization.

Corruption reads one stream, ``substream(seed, "corrupt")``, with ``c + 1``
uniforms per row in row order, so row ``i``'s draw depends only on the seed,
``i`` and ``c``.
"""

from __future__ import annotations

import numpy as np

STREAMS = {
    "split": 0,
    "init": 1,
    "shuffle": 2,
    "corrupt": 3,
}


def substream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Generator for the named stream; ``extra`` indices split it further."""
    return np.random.default_rng([int(seed), STREAMS[name], *[int(e) for e in extra]])
