"""The repository's benchmark: workloads, load generator, tracing, compare."""
