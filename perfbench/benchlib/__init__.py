"""Library of the repository benchmark (``perfbench/run.py``).

* :mod:`~benchlib.stats` -- medians, the "tail" percentile rule, spreads;
* :mod:`~benchlib.spans` -- the in-memory span tracer and the class-level
  wrappers that feed it;
* :mod:`~benchlib.sim` -- the ``rma-flush`` and ``p2p-match`` workloads;
* :mod:`~benchlib.served` -- the ``serve-mixed`` workload;
* :mod:`~benchlib.serve_proc` -- the server process ``serve-mixed`` drives.
"""


class CheckFailed(AssertionError):
    """An op ran, but its output breaks the workload's correctness check."""
