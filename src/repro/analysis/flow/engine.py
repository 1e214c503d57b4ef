"""Forward worklist fixpoint over a :class:`~repro.analysis.flow.cfg.CFG`.

A dataflow analysis supplies three things:

* an initial state for the entry node,
* a ``transfer(node, state) -> state`` function (pure — must not
  mutate its input), and
* a ``join(a, b) -> state`` merge for control-flow confluences.

The engine iterates to a fixpoint and returns the state *before* each
node, which is what the rules want: "what do I know when this
statement runs?".  States are compared with ``==``; domains are plain
dicts/frozensets so that's structural.

Termination: every domain in this package has finite height (tag sets
over a finite alphabet, origin chains capped at :data:`MAX_ORIGINS`),
and ``join`` is monotone, so the loop terminates.  A belt-and-braces
iteration cap guards against a buggy domain.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional, TypeVar

from .cfg import CFG, Node

S = TypeVar("S")

#: Hard cap on node visits, as a multiple of the node count.  A
#: correct finite-height domain converges far below this.
_VISIT_FACTOR = 64


def fixpoint(
    cfg: CFG,
    initial: S,
    transfer: Callable[[Node, S], S],
    join: Callable[[S, S], S],
    bottom: Optional[S] = None,
) -> Dict[int, S]:
    """Run the analysis; returns {node.index: state-before-node}.

    ``bottom`` is the state for not-yet-reached nodes; ``None`` means
    "unreached" and joins as the identity.
    """
    before: Dict[int, Optional[S]] = {n.index: bottom for n in cfg.nodes}
    before[cfg.entry.index] = initial
    work = deque([cfg.entry])
    queued = {cfg.entry.index}
    visits = 0
    budget = _VISIT_FACTOR * max(1, len(cfg.nodes))
    while work:
        node = work.popleft()
        queued.discard(node.index)
        visits += 1
        if visits > budget:  # pragma: no cover - domain bug backstop
            break
        state = before[node.index]
        if state is None:
            continue
        out = transfer(node, state)
        for succ in node.succ:
            old = before[succ.index]
            if old is None:
                merged = out
            else:
                merged = join(old, out)
            if merged != old:
                before[succ.index] = merged
                if succ.index not in queued:
                    work.append(succ)
                    queued.add(succ.index)
    return {
        idx: state for idx, state in before.items() if state is not None
    }

