"""Grid benchmark for the DC-L1 simulator (see README.md in this directory)."""
