"""Empty placeholder module; the package runs no work in parallel.

It stays only because the benchmark's tracer imports every module in its
list of layers, ``parallel`` included. ROADMAP item 6's benchmark change
drops that layer and deletes this file.
"""
