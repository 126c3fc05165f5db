"""The distributed execution tier: a coordinator/worker ``cluster`` backend.

PaSh's order-aware dataflow model makes the wide fan-out stages the optimizer
creates (split -> N stateless chains -> aggregate) *location-independent*: a
stateless node evaluates one line batch at a time with no cross-batch state,
so it runs byte-identically on any host that can see its input stream.  This
package turns that property into a second execution tier above the
single-host scheduler:

* :mod:`repro.cluster.protocol` — the wire format: length-prefixed pickled
  control messages plus chunk frames (the exact framing of
  :mod:`repro.engine.channels`) for cross-host edge streams,
* :mod:`repro.cluster.worker` — the ``pash-worker`` client process: connect,
  register, receive pickled node plans, execute them with the engine's own
  :func:`repro.engine.workers.execute_plan`, stream the results home,
* :mod:`repro.cluster.coordinator` — the :class:`ClusterCoordinator` that
  shards a graph across registered workers (stateless nodes remote,
  stateful/aggregation nodes local), monitors heartbeats, requeues tasks
  from lost workers, and the :class:`ClusterBackend` registered under the
  name ``"cluster"``.

The tier is fully testable without SSH: with no ``connect`` address the
coordinator spawns ``workers`` localhost ``pash-worker`` processes itself.
Fleets outlive a single run: the backend checks an idle fleet out of a
process-wide free list and back in after a clean run, and
:func:`shutdown_fleets` (registered with ``atexit``) closes the idle ones.
"""

from repro.cluster.coordinator import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterOptions,
    remote_eligible,
    shutdown_fleets,
)

__all__ = [
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterOptions",
    "remote_eligible",
    "shutdown_fleets",
]
