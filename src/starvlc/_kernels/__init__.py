"""Aliases kept for the benchmark, whose `perfbench/run.py::run_probes` times
`enumerate_vertices` from here and whose `::machine_facts` records
`KERNEL_BACKEND` (via `starvlc`). They are this module's only readers; the
chain walk lives in `starvlc.oracle`."""

from ..oracle import enumerate_vertices  # noqa: F401

KERNEL_BACKEND = "numpy"
