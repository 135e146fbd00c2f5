"""Developer tooling shared by the CLIs: report and argument plumbing
(:mod:`.bench`) and the crash-safe worker pool (:mod:`.pool`)."""
