"""paths._max_flow as it was before each round grew a search forest: the
tests' reference flow.

The package's flow grows one tree per start in each search, stops a tree at
its first end node and augments every tree that reached one; this is the
flow it replaced, which augmented one shortest path per search.  It is kept
so the tests can compare flow values and, below k, the residual reach of
the starts on the same networks.  The two may route their paths apart.
"""

from __future__ import annotations

from typing import Sequence


def reference_max_flow(
    out: list[Sequence[int]],
    head: list[int],
    cap: list[int],
    starts: list[int],
    ends: set[int],
    k: int,
) -> tuple[int, list[int]]:
    """Augment along shortest start-end paths until k units flow or none is
    left.

    Each search scans the starts first, in the order given, and stops once
    it has scanned an end node; so no unit ever leaves an end node.  Returns
    the flow value and the last search's marks: when the value is below k,
    the nodes x with ``mark[x] != -1`` are the residual reach of the starts,
    the start side of a minimum cut.
    """
    flow = 0
    mark: list[int] = []
    while flow < k:
        # mark[x] is the arc that reached x, -2 at a start, -1 if unreached
        mark = [-1] * len(out)
        for x in starts:
            mark[x] = -2
        queue = list(starts)
        for x in queue:
            for j in out[x]:
                if cap[j]:
                    b = head[j]
                    if mark[b] == -1:
                        mark[b] = j
                        queue.append(b)
            if x in ends:
                break
        else:
            return flow, mark
        while mark[x] != -2:
            j = mark[x]
            cap[j] -= 1
            cap[j ^ 1] += 1
            x = head[j ^ 1]
        flow += 1
    return flow, mark
