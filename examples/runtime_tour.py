#!/usr/bin/env python
"""A tour of the message-passing runtime: write your own node program.

The coloring algorithms are ordinary :class:`NodeProgram` subclasses;
this example builds a new one from scratch — a synchronous *broadcast
echo* that measures the network's eccentricity from a root — and shows
the runtime facilities around it: metrics, tracing, fault injection,
and the asynchronous engine producing bit-identical results.

Run:  python examples/runtime_tour.py
"""

from repro.graphs.generators import grid_graph
from repro.runtime import (
    AsyncEngine,
    DropRandomMessages,
    EventTracer,
    NodeProgram,
    SynchronousEngine,
)


class FloodEcho(NodeProgram):
    """BFS flood from a root: each node learns its hop distance.

    Superstep s delivers the wave that left distance-(s-1) nodes, so a
    node's first-contact superstep *is* its distance.  Nodes halt after
    forwarding the wave once — the simplest possible protocol, but it
    exercises broadcasts, halting, and per-node state.
    """

    def __init__(self, node_id: int, root: int) -> None:
        self.node_id = node_id
        self.root = root
        self.distance = None

    def on_init(self, ctx) -> None:
        if self.node_id == self.root:
            self.distance = 0

    #: Give up waiting for the wave after this many quiet supersteps —
    #: only reachable under message loss.
    PATIENCE = 50

    def on_superstep(self, ctx, inbox) -> None:
        if self.distance is None and inbox:
            self.distance = min(m.payload for m in inbox) + 1
            ctx.trace("reached", distance=self.distance)
        if self.distance is not None:
            if self.distance == ctx.superstep:
                ctx.broadcast(self.distance)  # forward the wave once
            else:
                self.halt()
        elif ctx.superstep >= self.PATIENCE:
            self.halt()  # partitioned from the root (lossy runs only)


def run_flood(engine_cls, topology, **kwargs):
    engine = engine_cls(topology, lambda u: FloodEcho(u, root=0), seed=1, **kwargs)
    result = engine.run()
    return [p.distance for p in result.programs], result.metrics


def main() -> None:
    grid = grid_graph(6, 6)
    tracer = EventTracer()

    distances, metrics = run_flood(SynchronousEngine, grid, tracer=tracer)
    print(f"6x6 grid flood from corner 0: eccentricity = {max(distances)} "
          f"(expected 10 = Manhattan diameter)")
    print(f"metrics: {metrics.as_dict()}")
    print(f"tracer captured {len(tracer)} 'reached' events; "
          f"last node reached: {tracer.events[-1].node}")

    # Random link delays of up to 3 ticks, hidden by the α-synchronizer:
    # the program sees the same pulses, so it computes the same answer.
    async_distances, _ = run_flood(AsyncEngine, grid, max_delay=3)
    print(f"async engine (delays up to 3) identical: {async_distances == distances}")

    # Fault injection: with 30% message loss the wave can miss nodes —
    # the run still terminates (halting is local), but distances become
    # upper bounds or None.
    lossy, _ = run_flood(
        SynchronousEngine, grid, faults=DropRandomMessages(0.3, seed=9)
    )
    missed = sum(1 for d in lossy if d is None)
    inflated = sum(
        1 for a, b in zip(lossy, distances) if a is not None and a > b
    )
    print(f"with 30% loss: {missed} nodes never reached, "
          f"{inflated} saw inflated distances")


if __name__ == "__main__":
    main()
