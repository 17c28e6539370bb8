"""Multigraph.parallel_pair as it was before multigraphs recorded their
parallel pair at construction: the tests' reference.

The package's graph scans its edges once when it is built, keyed by their
numbered ends; this is the scan it replaced, run on every call and keyed by
the edge records' vertex-name pairs.  It is kept so the tests can compare
the recorded pair with it on the same graphs.
"""


def reference_parallel_pair(H):
    seen = {}
    for e in H.edges():
        if e.ends in seen:
            return (seen[e.ends], e.id)
        seen[e.ends] = e.id
    return None
