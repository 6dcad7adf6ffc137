"""gyan-lint + simsan: static analysis and runtime sanitizing for GYAN.

GYAN's contribution is declarative plumbing — compute requirements in
tool wrappers, destinations and dynamic rules in ``job_conf.xml``,
container GPU flags — and in production every misdeclaration surfaces
only at job-launch time as a silent CPU fallback or a failed container.
This package catches those mistakes *before* anything runs:

``findings`` / ``rules``
    The :class:`~repro.analysis.findings.Finding` model with ordered
    severities, the report spine every analyzer returns (exit codes,
    ``--baseline`` step, text/JSON rendering), and the rule catalogue
    (``GYAN1xx`` config, ``SRC2xx`` source, ``SIM3xx`` sanitizer).
``sources``
    The one front end of the four analyzers: every input found, read,
    classified and parsed once.
``config_rules``
    Static analysis of tool wrapper XML and ``job_conf.xml`` against a
    simulated host description.
``source_rules``
    AST passes enforcing virtual-clock discipline and the NVML
    initialisation lifecycle on the repro sources themselves.
``sanitizer``
    simsan — the opt-in runtime invariant checker (leaks, double frees,
    utilization bounds, clock monotonicity), enabled via
    ``GYAN_SIMSAN=1`` and on for the whole test suite.
``linter``
    The per-file dispatch and the cross-file check — what
    ``python -m repro lint`` calls.
``verifier``
    gyan-verify — whole-deployment verification (``VER2xx`` dataflow,
    ``VER3xx`` capacity, ``VER4xx`` small-scope model checking with
    replayable counterexamples) — what ``python -m repro verify``
    calls.
"""
