"""Exact minimum-stretch spanning tree via dynamic programming over a nice
tree decomposition."""
