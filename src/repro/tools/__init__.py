"""Developer tooling shared by the CLIs: bench-report helpers."""
