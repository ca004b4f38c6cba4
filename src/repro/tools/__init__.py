"""Command-line tools: exhibit regeneration (:mod:`.figures`) and
control-plane scenarios (:mod:`.concordd`).  Run them as
``python -m repro.tools.<tool>``; the package itself imports nothing, so
running a tool executes its module exactly once."""
