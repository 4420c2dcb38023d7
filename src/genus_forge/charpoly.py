"""Empty.  The class-polynomial ring moved to tests/theta_oracle.py, its only
user.  The file stays because perfbench/tracer.py lists `charpoly` in
`LAYERS` and imports every layer (the `charpoly.*` metrics read 0), and it
goes when the benchmark harness drops that entry.
"""
