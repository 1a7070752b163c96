"""End-to-end and per-layer benchmark of the ``poishare`` command line."""
