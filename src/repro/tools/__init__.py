"""Operational console tools for the on-disk planes.

The simulation engine keeps three kinds of durable state, each in one
on-disk form: trace-store entries, result-cache shards, and run
journals. :mod:`repro.tools.fsck` (the ``repro-fsck`` console script) is
the offline integrity sweep over all of them — the runtime recovery
paths (quarantine-and-regenerate, journal replay) handle damage *when a
run trips over it*; fsck finds and repairs it *before* anyone does.
:mod:`repro.tools.report` (``repro-report``) renders one run from its
journal and telemetry files.
"""
