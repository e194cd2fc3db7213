"""Repository benchmark: workloads, tracing and the parent/change comparison."""
