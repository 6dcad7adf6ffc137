"""repro.analysis.verifier — whole-deployment static verification.

Where gyan-lint checks files one at a time, the verifier loads a whole
deployment — job_conf + tool wrappers + chaos plans — into one typed
graph (:mod:`~repro.analysis.verifier.ir`) and runs three passes over
it:

* :mod:`~repro.analysis.verifier.dataflow` (VER2xx) propagates GPU
  granted/denied facts along routes and flags drops and conflicts;
* :mod:`~repro.analysis.verifier.capacity` (VER3xx) checks declared
  GPU memory against the simulated K80 framebuffer under the concrete
  allocation strategies;
* :mod:`~repro.analysis.verifier.model_check` (VER4xx) exhaustively
  explores bounded fault schedules against the real mapper / health /
  resubmit machinery and emits replayable counterexample chaos plans;
* :mod:`~repro.analysis.verifier.overload` (VER501-503) checks that
  the overload-protection knobs (queue bounds, degrade arms,
  deadlines) cover the routing graph coherently;
* :mod:`~repro.analysis.verifier.autoscale` (VER504-505) checks that
  shipped ``gyan.autoscale/v1`` plans can actually clear their own
  declared peak demand and react inside the shed deadline.

Entry point: :func:`~repro.analysis.verifier.driver.verify_paths`,
shipped as ``python -m repro verify``.
"""
