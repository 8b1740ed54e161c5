"""End-to-end benchmark of the LLM serving platform (see ../README.md).

The package owns everything a measurement needs — simulated provider,
load generators, percentile code, tracer, workloads — and reaches into the
system under test only through the public names listed in the README.
"""
