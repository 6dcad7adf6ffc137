"""Compute-cluster substrate.

Galaxy deployments sit on "a conventional cluster, cloud, or a hybrid
system" (paper §II-A).  GYAN itself only exercises the *local* execution
path of one node — its testbed is a single Chameleon Cloud machine with
48 CPUs and two K80 boards — but the destination-mapping machinery is
written against a cluster abstraction, so we provide one: nodes with CPU
slots and an optional GPU host, plus a FIFO scheduler with slot
accounting that the Galaxy runners submit to.
"""
