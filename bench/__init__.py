"""End-to-end benchmark of the simulator; see ``bench/README.md``."""
