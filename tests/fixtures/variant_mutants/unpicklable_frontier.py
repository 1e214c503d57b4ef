"""Seeded escape bugs: frontier state that cannot cross a process.

Three REP014 sinks in one module:

* ``spawn_logger`` ships an ``open(...)`` handle in ``Process`` args;
* ``enumerate_shards`` dispatches ``_run_shard``, whose summary
  mutates the ``stats`` object it received from the parent (REP014
  reports the write at the boundary, with the write in its trace);
* ``FrontierOps.root_state`` returns frontier state with a lambda
  inside — unserializable the moment the work queue ships it.
"""

import multiprocessing


def _run_shard(job):
    graph, stats = job
    stats.calls += 1
    return graph


def enumerate_shards(shards):
    with multiprocessing.Pool() as pool:
        return pool.map(_run_shard, shards)


def spawn_logger(path):
    handle = open(path)
    worker = multiprocessing.Process(target=_run_shard, args=(handle,))
    worker.start()
    return worker


class FrontierOps:
    def root_state(self, graph):
        seed = lambda v: (v, graph)
        return {"graph": graph, "seed": seed}

    def search_ops(self):
        return self
