"""Compute-cluster substrate.

Galaxy deployments sit on "a conventional cluster, cloud, or a hybrid
system" (paper §II-A).  GYAN itself only exercises the *local* execution
path of one node — its testbed is a single Chameleon Cloud machine with
48 CPUs and two K80 boards — and that node is the object tier: a
:class:`~repro.cluster.node.ComputeNode` (CPU slots the local runner
reserves, an optional GPU host) under one
:func:`~repro.core.orchestrator.build_deployment`.  Multi-node
placement is the fleet tier (:mod:`repro.cluster.fleet`), which runs
the same first-available mapping over many nodes at columnar cost.
"""
