"""The repo's benchmark: six workloads, end-to-end metrics and a
per-packet layer ledger that reconciles with them.  See README.md;
run with ``python -m bench``."""
