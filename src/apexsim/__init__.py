"""Recoverability-aware block allocation sandbox.

A small modeled disk, a flat-namespace filesystem on top of it, allocation
policies that rank unused blocks by a tunable priority score, deterministic
workload simulation with trace replay, post-deletion recovery measurement,
and a tabular reinforcement loop that tunes the ranking coefficients.
"""
